package video

import (
	"sort"
	"testing"
	"time"

	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/obs"
	"hebs/internal/quality"
)

// TestProcessFeedsFlightRecorder: inline and fanned-out runs of both
// clip walks feed one record per frame into an installed flight
// recorder, with the governor's decisions mirrored in the record
// fields.
func TestProcessFeedsFlightRecorder(t *testing.T) {
	seq := pipelineFixtures(t)["mixed"]
	pol := Policy{
		MaxStep:        0.01,
		CutThreshold:   0.15,
		ReuseThreshold: 4,
		Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	for _, workers := range []int{1, 4} {
		rec := obs.NewFlightRecorder(len(seq.Frames) + 8)
		prev := obs.SetFlightRecorder(rec)
		ppol := pol
		ppol.Workers = workers
		res, err := Process(seq, ppol)
		obs.SetFlightRecorder(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		recs := rec.Snapshot()
		if len(recs) != len(seq.Frames) {
			t.Fatalf("workers=%d: %d flight records, want %d", workers, len(recs), len(seq.Frames))
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Frame < recs[j].Frame })
		for i, fr := range recs {
			if fr.Frame != i {
				t.Fatalf("workers=%d: frame indices not a permutation of 0..n-1: %d at %d", workers, fr.Frame, i)
			}
			got := res.Frames[i]
			if fr.Beta != got.Beta || fr.Range != got.Range {
				t.Errorf("workers=%d frame %d: record (β=%v r=%d) disagrees with result (β=%v r=%d)",
					workers, i, fr.Beta, fr.Range, got.Beta, got.Range)
			}
			if fr.TargetBeta <= 0 || fr.TargetBeta > 1 {
				t.Errorf("workers=%d frame %d: target β %v out of (0,1]", workers, i, fr.TargetBeta)
			}
			if fr.Seconds < 0 {
				t.Errorf("workers=%d frame %d: negative wall time %v", workers, i, fr.Seconds)
			}
			if fr.HistHash == 0 {
				t.Errorf("workers=%d frame %d: no histogram hash despite ReuseThreshold>0", workers, i)
			}
			if workers == 1 && fr.Workers != 1 {
				t.Errorf("serial frame %d: Workers = %d", i, fr.Workers)
			}
			if workers > 1 && fr.Workers < 2 {
				t.Errorf("workers=%d frame %d: Workers = %d", workers, i, fr.Workers)
			}
		}
		// The governor flags must appear where the result says they
		// happened — the static prefix reuses, the cut index snaps.
		cutSnaps := 0
		for _, fr := range recs {
			if fr.CutSnap {
				cutSnaps++
			}
		}
		if cutSnaps == 0 {
			t.Errorf("workers=%d: no cut_snap records on the mixed clip", workers)
		}
	}

	// The zoned walk records every frame as well, replays included: a
	// bright lead-in and then a held dark scene dims under the slew
	// limit, settles, and core replays the held frames from then on.
	// The engine caches no plans, so a record's PlanCached (every zone
	// reused its plan) marks exactly core's frame replays.
	bright, dark := brightFrame(t), darkFrame(t)
	frames := []*gray.Image{bright, bright}
	for i := 0; i < 22; i++ {
		frames = append(frames, dark)
	}
	held, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	zpol := Policy{
		MaxStep: 0.05,
		Backend: ledBackend(t, 4, 4),
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	reg := obs.Default()
	lat := reg.Histogram("video.frame.seconds", nil)
	replayed := reg.Counter("core.zoned.frame_replays_total")
	slewed := reg.Counter("video.slew_limited_total")
	for _, workers := range []int{1, 4} {
		rec := obs.NewFlightRecorder(len(frames) + 8)
		prev := obs.SetFlightRecorder(rec)
		latBefore, replayBefore, slewBefore := lat.Count(), replayed.Value(), slewed.Value()
		zpol.Workers = workers
		zpol.Engine = core.NewEngine(core.EngineOptions{Workers: workers, PlanCacheSize: -1})
		res, err := Process(held, zpol)
		obs.SetFlightRecorder(prev)
		if err != nil {
			t.Fatalf("zoned workers=%d: %v", workers, err)
		}
		recs := rec.Snapshot()
		if len(recs) != len(frames) {
			t.Fatalf("zoned workers=%d: %d flight records, want %d", workers, len(recs), len(frames))
		}
		if n := lat.Count() - latBefore; n != int64(len(frames)) {
			t.Errorf("zoned workers=%d: %d video.frame.seconds observations, want %d", workers, n, len(frames))
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Frame < recs[j].Frame })
		replays, slews := 0, 0
		for i, fr := range recs {
			if fr.Frame != i {
				t.Fatalf("zoned workers=%d: frame %d recorded at %d", workers, fr.Frame, i)
			}
			if got := res.Frames[i]; fr.Beta != got.Beta || fr.Range != got.Range {
				t.Errorf("zoned workers=%d frame %d: record (β=%v r=%d) disagrees with result (β=%v r=%d)",
					workers, i, fr.Beta, fr.Range, got.Beta, got.Range)
			}
			if fr.Zones != 16 || fr.Workers != workers {
				t.Errorf("zoned workers=%d frame %d: zones %d workers %d, want 16 and %d",
					workers, i, fr.Zones, fr.Workers, workers)
			}
			if fr.PlanCached {
				replays++
			}
			if fr.SlewLimited {
				slews++
			}
		}
		if replays == 0 || int64(replays) != replayed.Value()-replayBefore {
			t.Errorf("zoned workers=%d: %d plan_cached records, want the %d replayed frames (> 0)",
				workers, replays, replayed.Value()-replayBefore)
		}
		if slews == 0 || int64(slews) != slewed.Value()-slewBefore {
			t.Errorf("zoned workers=%d: %d slew_limited records, want the %d slew-limited frames (> 0)",
				workers, slews, slewed.Value()-slewBefore)
		}
	}
}

// TestProcessNoRecorderNoRecords: with recording disabled the pipeline
// must not fabricate a recorder (the nil-sink discipline).
func TestProcessNoRecorderNoRecords(t *testing.T) {
	prev := obs.SetFlightRecorder(nil)
	defer obs.SetFlightRecorder(prev)
	seq := pipelineFixtures(t)["pan"]
	if _, err := Process(seq, Policy{Options: core.Options{MaxDistortionPercent: 10}}); err != nil {
		t.Fatal(err)
	}
	if obs.Flight() != nil {
		t.Error("Process installed a flight recorder on its own")
	}
}

// TestFrameSecondsCoverWholeFrame: a frame's latency — the flight
// record's Seconds and its video.frame.seconds observation — covers
// the frame's own range search as well as its Apply, at one worker and
// at two. The metric hook sleeps 2 ms, and a bisection over [2,255]
// makes at least 7 probes plus the predicted measurement, so every
// frame that searched reports at least 16 ms.
func TestFrameSecondsCoverWholeFrame(t *testing.T) {
	seq := pipelineFixtures(t)["pan"]
	pol := Policy{Options: core.Options{
		MaxDistortionPercent: 10,
		ExactSearch:          true,
		Metric: func(a *gray.Image, g quality.Recon) (float64, error) {
			time.Sleep(2 * time.Millisecond)
			return quality.UQIMetric(a, g)
		},
	}}
	const floor = 16 * time.Millisecond
	lat := obs.Default().Histogram("video.frame.seconds", nil)
	for _, workers := range []int{1, 2} {
		rec := obs.NewFlightRecorder(len(seq.Frames))
		prev := obs.SetFlightRecorder(rec)
		count, sum := lat.Count(), lat.Sum()
		pol.Workers = workers
		_, err := Process(seq, pol)
		obs.SetFlightRecorder(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		recs := rec.Snapshot()
		if len(recs) != len(seq.Frames) {
			t.Fatalf("workers=%d: %d flight records, want %d", workers, len(recs), len(seq.Frames))
		}
		for _, fr := range recs {
			if fr.Seconds < floor.Seconds() {
				t.Errorf("workers=%d frame %d: Seconds %v misses the range search (want >= %v)",
					workers, fr.Frame, fr.Seconds, floor)
			}
		}
		n := lat.Count() - count
		if n != int64(len(seq.Frames)) {
			t.Fatalf("workers=%d: %d latency observations, want %d", workers, n, len(seq.Frames))
		}
		if got := lat.Sum() - sum; got < float64(n)*floor.Seconds() {
			t.Errorf("workers=%d: video.frame.seconds grew by %v over %d frames, want >= %v each",
				workers, got, n, floor)
		}
	}
}
