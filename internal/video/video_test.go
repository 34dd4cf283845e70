package video

import (
	"math"
	"strings"
	"testing"

	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/power"
	"hebs/internal/sipi"
)

func base(t *testing.T) *gray.Image {
	t.Helper()
	img, err := sipi.Generate("autumn", 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func darkFrame(t *testing.T) *gray.Image {
	t.Helper()
	img, err := sipi.Generate("splash", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func brightFrame(t *testing.T) *gray.Image {
	t.Helper()
	img, err := sipi.Generate("sail", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestNewSequenceValidation(t *testing.T) {
	if _, err := NewSequence(nil); err == nil {
		t.Error("empty sequence should error")
	}
	if _, err := NewSequence([]*gray.Image{nil}); err == nil {
		t.Error("nil frame should error")
	}
	if _, err := NewSequence([]*gray.Image{gray.New(4, 4), gray.New(5, 4)}); err == nil {
		t.Error("mismatched frames should error")
	}
	seq, err := NewSequence([]*gray.Image{gray.New(4, 4), gray.New(4, 4)})
	if err != nil || len(seq.Frames) != 2 {
		t.Errorf("valid sequence rejected: %v", err)
	}
}

func TestPan(t *testing.T) {
	seq, err := Pan(base(t), 48, 48, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Frames) != 10 {
		t.Fatalf("frames = %d, want 10", len(seq.Frames))
	}
	if seq.Frames[0].W != 48 || seq.Frames[0].H != 48 {
		t.Error("wrong viewport size")
	}
	// Consecutive pan frames differ (the viewport moved).
	if seq.Frames[0].Equal(seq.Frames[1]) {
		t.Error("pan frames identical")
	}
}

func TestPanValidation(t *testing.T) {
	b := base(t)
	if _, err := Pan(nil, 8, 8, 3, 1); err == nil {
		t.Error("nil base should error")
	}
	if _, err := Pan(b, 0, 8, 3, 1); err == nil {
		t.Error("zero viewport should error")
	}
	if _, err := Pan(b, 500, 8, 3, 1); err == nil {
		t.Error("oversized viewport should error")
	}
	if _, err := Pan(b, 8, 8, 0, 1); err == nil {
		t.Error("zero frames should error")
	}
}

func TestPanWrapsAround(t *testing.T) {
	b := base(t)
	seq, err := Pan(b, 32, 32, 50, 16) // wraps after (128-32+1)/16 ≈ 6 frames
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Frames) != 50 {
		t.Fatalf("frames = %d", len(seq.Frames))
	}
}

func TestFade(t *testing.T) {
	a := gray.New(8, 8)
	b := gray.New(8, 8)
	b.Fill(200)
	seq, err := Fade(a, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Frames[0].Equal(a) {
		t.Error("fade does not start at a")
	}
	if !seq.Frames[4].Equal(b) {
		t.Error("fade does not end at b")
	}
	if seq.Frames[2].Pix[0] != 100 {
		t.Errorf("midpoint = %d, want 100", seq.Frames[2].Pix[0])
	}
}

func TestFadeValidation(t *testing.T) {
	a := gray.New(8, 8)
	if _, err := Fade(nil, a, 3); err == nil {
		t.Error("nil endpoint should error")
	}
	if _, err := Fade(a, gray.New(4, 4), 3); err == nil {
		t.Error("size mismatch should error")
	}
	if _, err := Fade(a, a, 1); err == nil {
		t.Error("single-frame fade should error")
	}
}

func TestCut(t *testing.T) {
	s1, _ := NewSequence([]*gray.Image{gray.New(8, 8)})
	s2, _ := NewSequence([]*gray.Image{gray.New(8, 8), gray.New(8, 8)})
	seq, err := Cut(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Frames) != 3 {
		t.Errorf("cut has %d frames, want 3", len(seq.Frames))
	}
	if _, err := Cut(nil, s1); err == nil {
		t.Error("nil sequence should error")
	}
}

func TestProcessNoSmoothing(t *testing.T) {
	seq, err := Pan(base(t), 48, 48, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Process(seq, Policy{
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 6 {
		t.Fatalf("results = %d, want 6", len(res.Frames))
	}
	for i, f := range res.Frames {
		if f.Beta != f.TargetBeta {
			t.Errorf("frame %d: no-smoothing run altered β", i)
		}
		if f.SavingPercent <= 0 {
			t.Errorf("frame %d: saving %v", i, f.SavingPercent)
		}
	}
	if res.MeanSaving <= 0 {
		t.Error("mean saving should be positive")
	}
}

func TestProcessSmoothingReducesFlicker(t *testing.T) {
	// A cutty sequence alternating dark and bright scenes.
	frames := []*gray.Image{
		darkFrame(t), darkFrame(t), brightFrame(t), brightFrame(t),
		darkFrame(t), darkFrame(t),
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxDistortionPercent: 10, ExactSearch: true}

	raw, err := Process(seq, Policy{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := Process(seq, Policy{MaxStep: 0.05, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	// Downward (dimming) moves obey the slew limit; brightening is
	// immediate by design (the distortion budget wins).
	for i := 1; i < len(smooth.Frames); i++ {
		drop := smooth.Frames[i-1].Beta - smooth.Frames[i].Beta
		if drop > 0.05+1e-9 {
			t.Errorf("frame %d: dimming step %v exceeds slew limit", i, drop)
		}
	}
	if raw.MaxAbsDeltaBeta > 0.05 && smooth.MeanAbsDeltaBeta >= raw.MeanAbsDeltaBeta {
		t.Errorf("smoothing did not reduce flicker: %v >= %v",
			smooth.MeanAbsDeltaBeta, raw.MeanAbsDeltaBeta)
	}
	// Smoothing trades power for stability: saving can only drop.
	if smooth.MeanSaving > raw.MeanSaving+1e-9 {
		t.Errorf("smoothing increased saving: %v > %v", smooth.MeanSaving, raw.MeanSaving)
	}
}

func TestProcessNeverDimsBelowTarget(t *testing.T) {
	frames := []*gray.Image{brightFrame(t), darkFrame(t), brightFrame(t)}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Process(seq, Policy{
		MaxStep: 0.02,
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Frames {
		if f.Beta < f.TargetBeta {
			t.Errorf("frame %d: applied β %v dims below admissible target %v",
				i, f.Beta, f.TargetBeta)
		}
	}
}

// TestSubLevelMaxStepHoldsBeta: a MaxStep below one range level
// (1/255) cannot dim a whole level, and the slew floor rounds up onto
// the range grid, so β holds at frame 0's through a dimming fade with
// no cut.
func TestSubLevelMaxStepHoldsBeta(t *testing.T) {
	seq, err := Fade(brightFrame(t), darkFrame(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Process(seq, Policy{
		MaxStep: 0.5 / 255,
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Frames[0], res.Frames[len(res.Frames)-1]
	if last.TargetBeta >= first.Beta {
		t.Fatalf("fade target β %v does not dim below frame 0's %v", last.TargetBeta, first.Beta)
	}
	for i, f := range res.Frames {
		if f.Beta != first.Beta || f.Range != first.Range {
			t.Errorf("frame %d: β %v (range %d), want frame 0's held %v (range %d)",
				i, f.Beta, f.Range, first.Beta, first.Range)
		}
	}
}

func TestProcessCutThresholdSnaps(t *testing.T) {
	frames := []*gray.Image{brightFrame(t), darkFrame(t)}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxDistortionPercent: 10, ExactSearch: true}
	// Without snapping, the second frame is slew-limited.
	limited, err := Process(seq, Policy{MaxStep: 0.01, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	// With a cut threshold below the jump, β snaps to target at the cut.
	snapped, err := Process(seq, Policy{MaxStep: 0.01, CutThreshold: 0.02, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snapped.Frames[1].Beta-snapped.Frames[1].TargetBeta) > 1.0/255 {
		t.Errorf("cut did not snap: β %v vs target %v",
			snapped.Frames[1].Beta, snapped.Frames[1].TargetBeta)
	}
	if limited.Frames[1].Beta == snapped.Frames[1].Beta &&
		math.Abs(limited.Frames[1].TargetBeta-limited.Frames[1].Beta) > 0.02 {
		t.Error("slew-limited and snapped runs should differ on a large cut")
	}
}

func TestProcessValidation(t *testing.T) {
	if _, err := Process(nil, Policy{}); err == nil {
		t.Error("nil sequence should error")
	}
	seq, _ := NewSequence([]*gray.Image{gray.New(8, 8)})
	if _, err := Process(seq, Policy{MaxStep: -1}); err == nil {
		t.Error("negative MaxStep should error")
	}
	if _, err := Process(seq, Policy{CutThreshold: -1}); err == nil {
		t.Error("negative CutThreshold should error")
	}
	// NaN passes a "< 0" check; with an otherwise valid policy it must
	// still be rejected rather than silently disable the feature.
	valid := core.Options{DynamicRange: 150}
	for name, pol := range map[string]Policy{
		"MaxStep":        {MaxStep: math.NaN(), Options: valid},
		"CutThreshold":   {CutThreshold: math.NaN(), Options: valid},
		"ReuseThreshold": {ReuseThreshold: math.NaN(), Options: valid},
	} {
		if _, err := Process(seq, pol); err == nil {
			t.Errorf("NaN %s should error", name)
		}
	}
	// Options with no budget/range propagate core's validation error.
	if _, err := Process(seq, Policy{}); err == nil {
		t.Error("missing budget should error")
	}
	// A power model with no baseline power cannot express a saving.
	for _, delta := range []bool{false, true} {
		zero := Policy{DeltaAnalysis: delta, Options: core.Options{DynamicRange: 150, Subsystem: &power.Subsystem{}}}
		if _, err := Process(seq, zero); err == nil || !strings.Contains(err.Error(), "non-positive baseline power") {
			t.Errorf("delta=%v: zero-power subsystem: got %v, want the non-positive baseline error", delta, err)
		}
	}
}

func TestReusePolicyStaticScene(t *testing.T) {
	// A static sequence: with reuse enabled, frames after the first keep
	// the same admissible range (the search is skipped), and the results
	// match a no-reuse run exactly.
	frames := make([]*gray.Image, 5)
	f := darkFrame(t)
	for i := range frames {
		frames[i] = f
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxDistortionPercent: 10, ExactSearch: true}
	plain, err := Process(seq, Policy{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	reuse, err := Process(seq, Policy{ReuseThreshold: 5, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Frames {
		if plain.Frames[i].Range != reuse.Frames[i].Range {
			t.Errorf("frame %d: reuse range %d != plain %d",
				i, reuse.Frames[i].Range, plain.Frames[i].Range)
		}
		if plain.Frames[i].Beta != reuse.Frames[i].Beta {
			t.Errorf("frame %d: reuse β %v != plain %v",
				i, reuse.Frames[i].Beta, plain.Frames[i].Beta)
		}
	}
}

func TestReusePolicyRecomputesAcrossCut(t *testing.T) {
	frames := []*gray.Image{
		darkFrame(t), darkFrame(t), brightFrame(t), brightFrame(t),
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxDistortionPercent: 10, ExactSearch: true}
	res, err := Process(seq, Policy{ReuseThreshold: 5, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	// The cut at frame 2 moves the histogram far beyond the reuse
	// threshold, so the bright scene gets its own (different) range.
	if res.Frames[2].Range == res.Frames[1].Range {
		t.Error("cut frame should have recomputed its range")
	}
	// Within each scene the range is stable.
	if res.Frames[0].Range != res.Frames[1].Range {
		t.Error("static dark scene should reuse its range")
	}
	if res.Frames[2].Range != res.Frames[3].Range {
		t.Error("static bright scene should reuse its range")
	}
}

func TestReusePolicyValidation(t *testing.T) {
	seq, _ := NewSequence([]*gray.Image{gray.New(8, 8)})
	if _, err := Process(seq, Policy{ReuseThreshold: -1}); err == nil {
		t.Error("negative reuse threshold should error")
	}
}
