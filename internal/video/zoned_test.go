package video

import (
	"math"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/obs"
)

func ledBackend(t *testing.T, rows, cols int) *backlight.LED {
	t.Helper()
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: rows, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	return led
}

// TestZonedCCFLBackendMatchesLegacy: the global-CCFL backend routes a
// clip through the classic walk and every frame result is bit-identical
// to a run without a backend — the video-layer leg of the
// backend-equivalence anchor, across workers and delta analysis.
func TestZonedCCFLBackendMatchesLegacy(t *testing.T) {
	seq, err := Pan(base(t), 48, 48, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxDistortionPercent: 10, ExactSearch: true}
	for _, workers := range []int{1, 4} {
		for _, delta := range []bool{false, true} {
			legacy, err := Process(seq, Policy{
				MaxStep: 0.05, CutThreshold: 0.2, Options: opts,
				Workers: workers, DeltaAnalysis: delta,
			})
			if err != nil {
				t.Fatal(err)
			}
			backend, err := Process(seq, Policy{
				MaxStep: 0.05, CutThreshold: 0.2, Options: opts,
				Workers: workers, DeltaAnalysis: delta,
				Backend: backlight.DefaultCCFL(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(legacy.Frames) != len(backend.Frames) {
				t.Fatalf("workers=%d delta=%v: frame counts differ", workers, delta)
			}
			for i := range legacy.Frames {
				if legacy.Frames[i] != backend.Frames[i] {
					t.Errorf("workers=%d delta=%v frame %d: %+v != %+v",
						workers, delta, i, legacy.Frames[i], backend.Frames[i])
				}
			}
		}
	}
}

// TestZonedWalkDeterministic: the per-zone walk yields identical frame
// results regardless of the engine's zone-fan-out worker count.
func TestZonedWalkDeterministic(t *testing.T) {
	seq, err := Pan(base(t), 48, 48, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxDistortionPercent: 10, ExactSearch: true}
	run := func(workers int) *Result {
		res, err := Process(seq, Policy{
			MaxStep: 0.05, Options: opts,
			Backend: ledBackend(t, 2, 2), Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	par := run(4)
	for i := range serial.Frames {
		if serial.Frames[i] != par.Frames[i] {
			t.Errorf("frame %d: workers=1 %+v != workers=4 %+v",
				i, serial.Frames[i], par.Frames[i])
		}
		if serial.Frames[i].Zones != 4 {
			t.Errorf("frame %d: zones %d, want 4", i, serial.Frames[i].Zones)
		}
	}
}

// TestZonedDeltaReplay: zoned output does not depend on DeltaAnalysis,
// and identical frames replay through core's zone and frame memo at
// either setting. The static clip replays at least its three held
// frames whole (its first frame too when the zone memo still holds it).
// The pan-plus-held clip on a 10-bit PWM grid, with a slew step finer
// than 1/255, holds frames whose floors still move the field — a
// whole-frame replay keyed on the pixels alone would repeat the
// previous frame's β there.
func TestZonedDeltaReplay(t *testing.T) {
	f := darkFrame(t)
	static, err := NewSequence([]*gray.Image{f, f, f, f})
	if err != nil {
		t.Fatal(err)
	}
	pan, err := Pan(base(t), 48, 48, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	held := append([]*gray.Image{}, pan.Frames...)
	for i := 0; i < 6; i++ {
		held = append(held, pan.Frames[3])
	}
	panHeld, err := NewSequence(held)
	if err != nil {
		t.Fatal(err)
	}
	pwm10, err := backlight.NewLED(backlight.LEDOptions{Rows: 2, Cols: 2, PWMBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		seq          *Sequence
		pol          Policy
		frameReplays int64 // least per run; 0 = unchecked
	}{
		{"static", static, Policy{
			Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
			Backend: ledBackend(t, 2, 2),
		}, 3},
		{"pan-held/pwm10", panHeld, Policy{
			MaxStep: 0.002,
			Options: core.Options{MaxDistortionPercent: 20, ExactSearch: true},
			Backend: pwm10,
		}, 0},
	}
	for _, c := range cases {
		var runs [2]*Result
		for i, delta := range []bool{false, true} {
			pol := c.pol
			pol.DeltaAnalysis = delta
			_, before := zonedReplayCounts()
			res, err := Process(c.seq, pol)
			if err != nil {
				t.Fatal(err)
			}
			_, after := zonedReplayCounts()
			if after-before < c.frameReplays {
				t.Errorf("%s delta=%v: core replayed %d frames, want at least %d", c.name, delta, after-before, c.frameReplays)
			}
			runs[i] = res
		}
		for i := range runs[0].Frames {
			if runs[0].Frames[i] != runs[1].Frames[i] {
				t.Errorf("%s frame %d: delta on diverged from delta off:\n  on %+v\n off %+v",
					c.name, i, runs[1].Frames[i], runs[0].Frames[i])
			}
		}
	}
}

// TestZonedCutRunsOnce: a scene-cut frame costs one zoned engine run,
// like every other frame — the governor decides the cut on the
// frame's own zone targets inside the run instead of re-running it
// floor-free.
func TestZonedCutRunsOnce(t *testing.T) {
	bright, dark := brightFrame(t), darkFrame(t)
	var frames []*gray.Image
	for i := 0; i < 16; i++ {
		if i%4 < 2 {
			frames = append(frames, bright)
		} else {
			frames = append(frames, dark)
		}
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	runs := obs.NewCounter("core.zoned.runs_total")
	for _, workers := range []int{1, 4} {
		r0, c0 := runs.Value(), mCutSnaps.Value()
		_, err := Process(seq, Policy{
			MaxStep: 0.04, CutThreshold: 0.1, Workers: workers,
			Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
			Backend: ledBackend(t, 4, 4),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := runs.Value() - r0; got != int64(len(frames)) {
			t.Errorf("workers=%d: %d zoned runs for %d frames, want one each", workers, got, len(frames))
		}
		if mCutSnaps.Value() == c0 {
			t.Errorf("workers=%d: no cut snapped on a clip alternating bright and dark scenes", workers)
		}
	}
}

// TestZonedSlewAndCut: per-zone floors bound the mean dimming step, and
// a CutThreshold below the scene jump snaps the field to the frame's
// own floor-free solution.
func TestZonedSlewAndCut(t *testing.T) {
	frames := []*gray.Image{brightFrame(t), darkFrame(t), darkFrame(t)}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxDistortionPercent: 10, ExactSearch: true}
	b := ledBackend(t, 2, 2)

	limited, err := Process(seq, Policy{MaxStep: 0.02, Options: opts, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	// Each zone dims by at most the step per frame, so the mean does too.
	for i := 1; i < len(limited.Frames); i++ {
		drop := limited.Frames[i-1].Beta - limited.Frames[i].Beta
		if drop > 0.02+1e-9 {
			t.Errorf("frame %d: mean dimming step %v exceeds slew limit", i, drop)
		}
	}

	snapped, err := Process(seq, Policy{
		MaxStep: 0.02, CutThreshold: 0.05, Options: opts, Backend: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The snapped cut frame matches the dark frame processed on its own
	// (floor-free), while the slew-limited run holds a brighter field.
	solo, err := Process(seq, Policy{Options: opts, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	if snapped.Frames[1] != solo.Frames[1] {
		t.Errorf("cut frame did not snap to the floor-free solution: %+v != %+v",
			snapped.Frames[1], solo.Frames[1])
	}
	if limited.Frames[1].Beta <= snapped.Frames[1].Beta {
		t.Errorf("slew-limited frame %v not brighter than snapped %v",
			limited.Frames[1].Beta, snapped.Frames[1].Beta)
	}
}

// TestZonedFrameResultFields: the zoned walk populates the zone
// telemetry and keeps Beta ≥ TargetBeta (quantization and smoothing
// only raise drive levels).
func TestZonedFrameResultFields(t *testing.T) {
	seq, err := Pan(base(t), 48, 48, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Process(seq, Policy{
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
		Backend: ledBackend(t, 2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Frames {
		if f.Zones != 4 {
			t.Errorf("frame %d: zones %d", i, f.Zones)
		}
		if f.ZoneBetaSpread < 0 || f.ZoneBetaSpread > 1 {
			t.Errorf("frame %d: spread %v outside [0,1]", i, f.ZoneBetaSpread)
		}
		if f.Beta < f.TargetBeta-1e-12 {
			t.Errorf("frame %d: applied mean β %v below target mean %v", i, f.Beta, f.TargetBeta)
		}
		if f.Range < 1 || f.Beta <= 0 || f.Beta > 1 {
			t.Errorf("frame %d: implausible operating point %+v", i, f)
		}
		if math.IsNaN(f.Distortion) || f.Distortion < 0 {
			t.Errorf("frame %d: distortion %v", i, f.Distortion)
		}
	}
}
