// Observability instruments for the temporal pipeline: per-frame
// counters for the policy decisions (range reuse, slew limiting, cut
// snaps), last-run flicker gauges, the in-flight frame gauge, and the
// flight-recorder feed, so flicker-policy behaviour is attributable
// without re-running a clip.
package video

import "hebs/internal/obs"

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
