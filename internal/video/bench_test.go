package video

import (
	"context"
	"testing"

	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/sipi"
)

// steadyClip is a static 16-frame clip: the steady-state video case
// the engine's pools and plan cache target — after the first frame the
// histogram never changes, so range reuse and plan-cache hits should
// make per-frame work approach a pure LUT apply.
func steadyClip(b testing.TB) *Sequence {
	b.Helper()
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	frames := make([]*gray.Image, 16)
	for i := range frames {
		frames[i] = img
	}
	seq, err := NewSequence(frames)
	if err != nil {
		b.Fatal(err)
	}
	return seq
}

func steadyPolicy() Policy {
	return Policy{
		MaxStep:        0.04,
		ReuseThreshold: 4,
		Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
}

// BenchmarkEngineVideoSteadyState is the PR's headline number: the
// per-clip cost of the pooled engine path on a static scene, with one
// engine shared across iterations so pools and the plan cache are
// warm. Compare against BenchmarkLegacyVideoSteadyState (allocating
// path) — numbers are recorded in EXPERIMENTS.md.
func BenchmarkEngineVideoSteadyState(b *testing.B) {
	seq := steadyClip(b)
	pol := steadyPolicy()
	pol.Engine = core.NewEngine(core.EngineOptions{})
	ctx := context.Background()
	// Warm the pools and the plan cache outside the measurement.
	if _, err := ProcessContext(ctx, seq, pol); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProcessContext(ctx, seq, pol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineVideoSteadyStateParallel is the pipelined-scheduler
// counterpart of BenchmarkEngineVideoSteadyState: identical clip,
// policy and warm shared engine, frames fanned out over GOMAXPROCS
// workers. The ns/op ratio between the two is the scheduler's
// wall-clock speedup (≈1 on a single-CPU host, where the pool
// degenerates to one worker plus scheduling overhead).
func BenchmarkEngineVideoSteadyStateParallel(b *testing.B) {
	seq := steadyClip(b)
	pol := steadyPolicy()
	pol.Workers = -1 // all CPUs
	pol.Engine = core.NewEngine(core.EngineOptions{})
	ctx := context.Background()
	if _, err := ProcessContext(ctx, seq, pol); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProcessContext(ctx, seq, pol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLegacyVideoSteadyState is the same workload through the
// compat wrapper (fresh engine per clip, no cross-clip pooling) — the
// pre-refactor comparison point.
func BenchmarkLegacyVideoSteadyState(b *testing.B) {
	seq := steadyClip(b)
	pol := steadyPolicy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Process(seq, pol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineVideoDeltaSteadyState is BenchmarkEngineVideoSteadyState
// with incremental delta analysis: after the warm-up clip the pooled
// deltaState's reference matches every frame (the clip is static), so
// per-frame work collapses to the tile comparison: every frame is fused
// and makes no engine call. The ns/op ratio against BenchmarkEngineVideoSteadyState is
// the fused fast path's speedup on static content.
func BenchmarkEngineVideoDeltaSteadyState(b *testing.B) {
	seq := steadyClip(b)
	pol := steadyPolicy()
	pol.DeltaAnalysis = true
	pol.Engine = core.NewEngine(core.EngineOptions{})
	ctx := context.Background()
	if _, err := ProcessContext(ctx, seq, pol); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProcessContext(ctx, seq, pol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineVideoDeltaSteadyStateParallel adds the pipelined
// scheduler on top of delta analysis: phase A0's tile comparison
// plus the two-wave fused apply.
func BenchmarkEngineVideoDeltaSteadyStateParallel(b *testing.B) {
	seq := steadyClip(b)
	pol := steadyPolicy()
	pol.DeltaAnalysis = true
	pol.Workers = -1
	pol.Engine = core.NewEngine(core.EngineOptions{})
	ctx := context.Background()
	if _, err := ProcessContext(ctx, seq, pol); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProcessContext(ctx, seq, pol); err != nil {
			b.Fatal(err)
		}
	}
}
