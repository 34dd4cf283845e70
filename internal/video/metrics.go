// Observability instruments for the temporal pipeline: per-frame
// counters for the policy decisions (range reuse, slew limiting, cut
// snaps), last-run flicker gauges, the in-flight frame gauge, and the
// flight-recorder feed, so flicker-policy behaviour is attributable
// without re-running a clip.
package video

import (
	"hebs/internal/histogram"
	"hebs/internal/obs"
)

var (
	mSequences   = obs.NewCounter("video.sequences_total")
	mFrames      = obs.NewCounter("video.frames_total")
	mRangeReuse  = obs.NewCounter("video.range_reuse_total")
	mSlewLimited = obs.NewCounter("video.slew_limited_total")
	mCutSnaps    = obs.NewCounter("video.cut_snaps_total")
	mCutsFound   = obs.NewCounter("video.cuts_detected_total")

	// Delta-analysis behaviour: tiles actually re-binned (the
	// incremental analysis cost) and fused frames, which copy memoized
	// measurements and make no engine call.
	mTilesRebinned = obs.NewCounter("video.delta.tiles_rebinned_total")
	mFastPath      = obs.NewCounter("video.delta.frames_fastpath_total")

	mFrameLatency = obs.NewHistogram("video.frame.seconds", obs.LatencyBuckets())

	// Frames currently inside the Apply/measure stage — under the
	// pipelined scheduler this reads up to the worker bound; a value
	// stuck above zero between clips indicates a wedged worker.
	gInflight = obs.NewGauge("video.pipeline.inflight_frames")

	gMeanSaving   = obs.NewGauge("video.last_mean_saving_pct")
	gMeanAbsDelta = obs.NewGauge("video.last_mean_abs_delta_beta")
	gMaxAbsDelta  = obs.NewGauge("video.last_max_abs_delta_beta")
)

// flightHistHash is FNV-1a over a frame histogram's bins and pixel
// count — the flight record's scene fingerprint (two frames with equal
// hashes almost surely share a histogram, hence a plan). Called only
// when the flight recorder is enabled.
//
//hebs:noalloc
func flightHistHash(h *histogram.Histogram) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			x ^= v & 0xff
			x *= prime64
			v >>= 8
		}
	}
	for _, c := range h.Bins {
		mix(uint64(c))
	}
	mix(uint64(h.N))
	return x
}
