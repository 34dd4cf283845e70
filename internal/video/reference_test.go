package video

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/power"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// referenceWalk is the per-frame paper reproduction the clip scheduler
// must match bit for bit. Each frame runs the whole single-image
// pipeline (core.ProcessContext, on the default engine with plan
// caching off) — with the previous range when the reuse estimator
// calls the scene static — then the fast-attack/slow-decay governor
// with cut snap picks the applied β, and a slew-limited frame re-runs
// the pipeline at the smallest range whose β is at least applied (up
// to 1e-9 levels, so a MaxStep of k/(G−1) dims exactly k levels). It
// shares no code with processPipelined beyond Result.aggregate.
func referenceWalk(seq *Sequence, pol Policy) (*Result, error) {
	ctx := context.Background()
	sub := power.DefaultSubsystem
	if pol.Options.Subsystem != nil {
		sub = *pol.Options.Subsystem
	}
	var est *histogram.Estimator
	if pol.ReuseThreshold > 0 {
		var err error
		if est, err = histogram.NewEstimator(0.5); err != nil {
			return nil, err
		}
	}
	res := &Result{}
	prevBeta, prevRange := math.NaN(), 0
	for i, frame := range seq.Frames {
		opts := pol.Options
		if est != nil {
			h := histogram.Of(frame)
			if est.Ready() && prevRange > 0 {
				d, err := est.Distance(h)
				if err != nil {
					return nil, err
				}
				if d < pol.ReuseThreshold {
					opts.DynamicRange, opts.MaxDistortionPercent, opts.ExactSearch = prevRange, 0, false
				}
			}
			if err := est.Observe(h); err != nil {
				return nil, err
			}
		}
		r, err := core.ProcessContext(ctx, frame, opts)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		prevRange = r.Range
		target, applied := r.Beta, r.Beta
		if !math.IsNaN(prevBeta) && pol.MaxStep > 0 {
			delta := target - prevBeta
			isCut := pol.CutThreshold > 0 && math.Abs(delta) > pol.CutThreshold
			if delta < -pol.MaxStep && !isCut {
				applied = prevBeta - pol.MaxStep
			}
		}
		if applied != target {
			rng := int(math.Ceil(applied*float64(transform.Levels-1) - 1e-9))
			opts := pol.Options
			opts.DynamicRange, opts.MaxDistortionPercent, opts.ExactSearch = rng, 0, false
			r.Release()
			if r, err = core.ProcessContext(ctx, frame, opts); err != nil {
				return nil, fmt.Errorf("frame %d (smoothed): %w", i, err)
			}
		}
		saving, err := sub.SavingPercent(frame, r.Transformed, r.Beta)
		if err != nil {
			return nil, err
		}
		res.Frames = append(res.Frames, FrameResult{
			TargetBeta:    target,
			Beta:          r.Beta,
			Range:         r.Range,
			SavingPercent: saving,
			Distortion:    r.AchievedDistortion,
		})
		r.Release()
		prevBeta = res.Frames[i].Beta
	}
	res.aggregate()
	return res, nil
}

// oraclePolicies are the governor shapes the oracle table covers:
// slew limiting alone, slew with cut snap and range reuse, a direct
// range (no search), and no smoothing at all.
func oraclePolicies() map[string]Policy {
	return map[string]Policy{
		"slew": {
			MaxStep: 0.01,
			Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
		},
		"slew+cut+reuse": {
			MaxStep:        0.01,
			CutThreshold:   0.15,
			ReuseThreshold: 4,
			Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
		},
		"direct-range": {
			MaxStep: 0.02,
			Options: core.Options{DynamicRange: 150},
		},
		"no-smoothing": {
			Options: core.Options{MaxDistortionPercent: 20, ExactSearch: true},
		},
	}
}

// checksumClip is sipi "girl" at 128² (four 64×64 delta tiles). Frame
// 1 rewrites 16 pixels of tile 0, row 0 with bytes that keep the
// 64-bit FNV-style tile checksum FrameDelta once certified tiles with
// (the pair is solved from that invertible fold), so a checksum would
// call frame 1 identical and fuse it with frame 0's numbers. Frame 2
// also patches tile 3 (a partial re-bin) and frame 3 returns to frame 0.
func checksumClip(t *testing.T) *Sequence {
	t.Helper()
	girl, err := sipi.Generate("girl", 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	pair := [2][]uint8{
		{0x6a, 0x6a, 0x6a, 0x69, 0x69, 0x69, 0x6a, 0x6a, 0x6a, 0x69, 0x6a, 0x6a, 0x6a, 0x6a, 0x69, 0x6b},
		{0x7a, 0x7a, 0x7a, 0x79, 0x79, 0x79, 0x7a, 0x7a, 0xc0, 0x0e, 0x89, 0xc0, 0x33, 0x6f, 0xac, 0xb7},
	}
	f0, f1 := girl.Clone(), girl.Clone()
	copy(f0.Pix, pair[0])
	copy(f1.Pix, pair[1])
	f2 := f1.Clone()
	for y := 100; y < 108; y++ {
		for x := 100; x < 108; x++ {
			f2.Pix[y*f2.W+x] ^= 0xff
		}
	}
	seq, err := NewSequence([]*gray.Image{f0, f1, f2, f0})
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// checkSlewBound fails when res dims by more than pol.MaxStep (plus
// 1e-9) between consecutive frames that are not a scene cut, a target
// more than CutThreshold away from the previous applied β.
func checkSlewBound(t *testing.T, name string, res *Result, pol Policy) {
	t.Helper()
	if pol.MaxStep <= 0 {
		return
	}
	for i := 1; i < len(res.Frames); i++ {
		prev, fr := res.Frames[i-1].Beta, res.Frames[i]
		if pol.CutThreshold > 0 && math.Abs(fr.TargetBeta-prev) > pol.CutThreshold {
			continue
		}
		if prev-fr.Beta > pol.MaxStep+1e-9 {
			t.Fatalf("%s: frame %d dims β %v → %v, past MaxStep %v", name, i, prev, fr.Beta, pol.MaxStep)
		}
	}
}

// checkWalkMatrix asserts that Process equals referenceWalk bit for bit
// — every per-frame β, range, distortion and saving, and the clip
// aggregates — and keeps within the slew bound, for every fixture ×
// oracle policy × delta setting × worker count.
func checkWalkMatrix(t *testing.T, fixtures map[string]*Sequence, deltas []bool, workerCounts []int) {
	t.Helper()
	for seqName, seq := range fixtures {
		for polName, pol := range oraclePolicies() {
			want, err := referenceWalk(seq, pol)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", seqName, polName, err)
			}
			for _, delta := range deltas {
				for _, workers := range workerCounts {
					p := pol
					p.DeltaAnalysis, p.Workers = delta, workers
					got, err := Process(seq, p)
					if err != nil {
						t.Fatalf("%s/%s delta=%v workers=%d: %v", seqName, polName, delta, workers, err)
					}
					name := fmt.Sprintf("%s/%s delta=%v workers=%d", seqName, polName, delta, workers)
					checkSlewBound(t, name, got, p)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: result differs from the reference walk:\n got %+v\nwant %+v", name, got, want)
					}
				}
			}
		}
	}
}

// TestWalkMatchesReference is the clip walk's oracle: run inline
// (Workers 0 and 1) with delta analysis off, the Result equals
// referenceWalk's bit for bit across motion shapes and policy shapes.
func TestWalkMatchesReference(t *testing.T) {
	checkWalkMatrix(t, pipelineFixtures(t), []bool{false}, []int{0, 1})
}

// TestPipelinedMatchesSerial: with the phases fanned out over several
// workers, the Result still equals the serial reference walk bit for
// bit. The worker count is a parallelism bound, never a numeric knob.
func TestPipelinedMatchesSerial(t *testing.T) {
	checkWalkMatrix(t, pipelineFixtures(t), []bool{false}, []int{2, 3, 8, -1})
}

// TestDeltaMatchesFull: enabling DeltaAnalysis must not change a single
// bit of the Result — it equals the full-analysis reference walk at
// every worker count, on the 48×48 fixtures (one tile) and on
// checksumClip (four tiles, partial re-bins, and a rewrite no checksum
// sees). Delta analysis is an optimization, never an approximation.
func TestDeltaMatchesFull(t *testing.T) {
	fixtures := pipelineFixtures(t)
	fixtures["checksum"] = checksumClip(t)
	checkWalkMatrix(t, fixtures, []bool{true}, []int{0, 1, 2, 3, 8, -1})
}
