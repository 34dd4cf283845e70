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

// TestProcessContextCancelMidClip cancels the context from inside the
// distortion metric after the second frame starts: ProcessContext must
// return the completed prefix together with context.Canceled, and the
// policy engine's buffer pools must drain back to zero.
func TestProcessContextCancelMidClip(t *testing.T) {
	img, err := sipi.Generate("lena", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*gray.Image, 6)
	for i := range frames {
		frames[i] = img
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	cancellingMetric := func(a *gray.Image, g quality.Recon) (float64, error) {
		if calls.Add(1) >= 2 {
			cancel()
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return quality.UQIMetric(a, g)
	}
	eng := core.NewEngine(core.EngineOptions{})
	pol := Policy{
		Engine:  eng,
		Options: core.Options{DynamicRange: 150, Metric: cancellingMetric},
	}
	res, err := ProcessContext(ctx, seq, pol)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled clip must still return the completed prefix")
	}
	if len(res.Frames) == 0 || len(res.Frames) >= len(seq.Frames) {
		t.Fatalf("completed prefix has %d frames, want in (0, %d)", len(res.Frames), len(seq.Frames))
	}
	if res.MeanSaving <= 0 {
		t.Fatalf("partial aggregation missing: mean saving %v", res.MeanSaving)
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak after cancelled clip: %d buffers in use", inUse)
	}
}

// TestProcessContextCancelledUpfront: a context cancelled before the
// first frame yields an empty (but aggregatable) result.
func TestProcessContextCancelledUpfront(t *testing.T) {
	seq, err := NewSequence([]*gray.Image{gray.New(8, 8), gray.New(8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ProcessContext(ctx, seq, Policy{Options: core.Options{DynamicRange: 150}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil || len(res.Frames) != 0 {
		t.Fatalf("want empty result, got %+v", res)
	}
}

// TestProcessLegacyMatchesEngine: the pooled engine path must produce
// the reference walk's per-frame numbers on a private engine and on
// two passes through a shared one.
func TestProcessLegacyMatchesEngine(t *testing.T) {
	a, err := sipi.Generate("splash", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sipi.Generate("sail", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Fade(a, b, 6)
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{
		MaxStep:        0.05,
		ReuseThreshold: 2,
		Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	r1, err := referenceWalk(seq, pol)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := Process(seq, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r0.Frames, r1.Frames) {
		t.Fatalf("private engine: %+v != %+v", r0.Frames, r1.Frames)
	}
	shared := pol
	shared.Engine = core.NewEngine(core.EngineOptions{})
	// Twice through the same engine: the second pass runs on warm
	// pools and a warm plan cache.
	for pass := 0; pass < 2; pass++ {
		r2, err := ProcessContext(context.Background(), seq, shared)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Frames) != len(r2.Frames) {
			t.Fatalf("pass %d: frame count %d != %d", pass, len(r2.Frames), len(r1.Frames))
		}
		for i := range r1.Frames {
			if r1.Frames[i] != r2.Frames[i] {
				t.Fatalf("pass %d frame %d: %+v != %+v", pass, i, r2.Frames[i], r1.Frames[i])
			}
		}
	}
	if inUse := shared.Engine.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak across clips: %d buffers in use", inUse)
	}
}
