package video

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/quality"
	"hebs/internal/sipi"
)

// pipelineFixtures builds the motion shapes the governor reacts to:
// a pan (smooth drift), a fade into darkness (sustained dimming that
// trips the slew limiter), a hard cut (snap), a static scene (range
// reuse), and a mixed clip chaining all of them.
func pipelineFixtures(t *testing.T) map[string]*Sequence {
	t.Helper()
	pan, err := Pan(base(t), 48, 48, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	bright, err := sipi.Generate("sail", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	dark := gray.New(48, 48)
	for i := range dark.Pix {
		dark.Pix[i] = uint8(i % 40)
	}
	fade, err := Fade(bright, dark, 8)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Cut(pan, fade)
	if err != nil {
		t.Fatal(err)
	}
	static := make([]*gray.Image, 6)
	for i := range static {
		static[i] = pan.Frames[0]
	}
	staticSeq, err := NewSequence(static)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Cut(staticSeq, cut)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Sequence{
		"pan": pan, "fade": fade, "cut": cut, "static": staticSeq, "mixed": mixed,
	}
}

// TestPipelinedCutDetectionMatchesSerial: the scene-cut wrapper
// carries Workers into each scene-local run, and its Result equals the
// reference walk run scene by scene (each scene restarts the governor,
// with no β threshold) at every worker count.
func TestPipelinedCutDetectionMatchesSerial(t *testing.T) {
	fixtures := pipelineFixtures(t)
	seq := fixtures["mixed"]
	pol := Policy{
		MaxStep:        0.01,
		ReuseThreshold: 4,
		Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	cuts, err := DetectCuts(seq, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{}
	start := 0
	for _, end := range append(cuts, len(seq.Frames)) {
		scene, err := NewSequence(seq.Frames[start:end])
		if err != nil {
			t.Fatal(err)
		}
		r, err := referenceWalk(scene, pol)
		if err != nil {
			t.Fatal(err)
		}
		want.Frames = append(want.Frames, r.Frames...)
		start = end
	}
	want.aggregate()
	for _, workers := range []int{0, 1, 4} {
		pol.Workers = workers
		got, err := ProcessWithCutDetectionContext(context.Background(), seq, pol, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: cut-detection result differs from the per-scene reference:\n got %+v\nwant %+v",
				workers, got, want)
		}
	}
}

// TestPipelinedCancellation: cancelling mid-clip surfaces ctx's error
// with an aggregated (possibly empty) contiguous prefix, and releases
// every pooled buffer.
func TestPipelinedCancellation(t *testing.T) {
	seq, err := Pan(base(t), 48, 48, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.EngineOptions{})
	pol := Policy{
		MaxStep: 0.02,
		Workers: 4,
		Engine:  eng,
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	// Metric hook fires inside the engine's distortion measurements —
	// cancel once a few frames are in flight.
	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pol.Options.Metric = func(a *gray.Image, g quality.Recon) (float64, error) {
		if calls.Add(1) == 10 {
			cancel()
		}
		return 0.5, nil
	}
	res, err := ProcessContext(ctx, seq, pol)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result")
	}
	if len(res.Frames) >= len(seq.Frames) {
		t.Fatalf("cancelled run completed all %d frames", len(res.Frames))
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak after cancellation: %d buffers in use", inUse)
	}
	// Pre-cancelled: empty prefix, same error.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	res, err = ProcessContext(done, seq, pol)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: got %v", err)
	}
	if res != nil && len(res.Frames) != 0 {
		t.Fatalf("pre-cancelled run reported %d frames", len(res.Frames))
	}
}

// TestPolicyWorkersResolution pins the Workers convention: 0 and 1
// run inline, n > 1 bounded by the clip, negative all CPUs.
func TestPolicyWorkersResolution(t *testing.T) {
	if w := policyWorkers(0, 16); w != 1 {
		t.Errorf("policyWorkers(0) = %d, want 1", w)
	}
	if w := policyWorkers(1, 16); w != 1 {
		t.Errorf("policyWorkers(1) = %d, want 1", w)
	}
	if w := policyWorkers(8, 16); w != 8 {
		t.Errorf("policyWorkers(8) = %d, want 8", w)
	}
	if w := policyWorkers(8, 3); w != 3 {
		t.Errorf("policyWorkers(8, 3 frames) = %d, want 3", w)
	}
	if w := policyWorkers(-1, 16); w < 1 {
		t.Errorf("policyWorkers(-1) = %d", w)
	}
}
