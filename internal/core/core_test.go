package core

import (
	"context"
	"math"
	"testing"

	"hebs/internal/chart"
	"hebs/internal/driver"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/power"
	"hebs/internal/rgb"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

func testImg(t *testing.T, name string) *gray.Image {
	t.Helper()
	img, err := sipi.Generate(name, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// smallCurve builds a fast characteristic curve for lookup-mode tests.
func smallCurve(t *testing.T) *chart.Curve {
	t.Helper()
	var suite []sipi.NamedImage
	for _, n := range []string{"lena", "baboon", "housea"} {
		suite = append(suite, sipi.NamedImage{Name: n, Image: testImg(t, n)})
	}
	c, err := chart.Build(suite, chart.Options{Ranges: []int{50, 100, 150, 200, 250}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestProcessDirectRangeMode(t *testing.T) {
	img := testImg(t, "lena")
	res, err := Process(img, Options{DynamicRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Range != 150 {
		t.Errorf("Range = %d, want 150", res.Range)
	}
	wantBeta := 150.0 / 255.0
	if math.Abs(res.Beta-wantBeta) > 1e-12 {
		t.Errorf("Beta = %v, want %v", res.Beta, wantBeta)
	}
	// Transformed image honours the range.
	h := histogram.Of(res.Transformed)
	if h.MaxLevel() > 150 {
		t.Errorf("transformed max level %d exceeds range", h.MaxLevel())
	}
	if !res.Lambda.IsMonotone() {
		t.Error("Λ must be monotone")
	}
	if res.PowerSavingPercent <= 0 || res.PowerSavingPercent >= 100 {
		t.Errorf("saving %v implausible", res.PowerSavingPercent)
	}
	if res.PredictedDistortion != 0 {
		t.Errorf("direct mode should not predict distortion, got %v", res.PredictedDistortion)
	}
	if res.AchievedDistortion < 0 {
		t.Errorf("achieved distortion %v negative", res.AchievedDistortion)
	}
	if res.PowerBefore <= res.PowerAfter {
		t.Errorf("power did not drop: %v -> %v", res.PowerBefore, res.PowerAfter)
	}
}

func TestProcessSegmentBudgetRespected(t *testing.T) {
	img := testImg(t, "peppers")
	for _, m := range []int{4, 8, 16} {
		res, err := Process(img, Options{DynamicRange: 120, Segments: m})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Breakpoints) > m+1 {
			t.Errorf("m=%d: %d breakpoints exceed budget", m, len(res.Breakpoints))
		}
	}
}

func TestProcessPLCErrorDropsWithSegments(t *testing.T) {
	img := testImg(t, "autumn")
	prev := math.Inf(1)
	for _, m := range []int{2, 6, 20} {
		res, err := Process(img, Options{DynamicRange: 120, Segments: m})
		if err != nil {
			t.Fatal(err)
		}
		if res.PLCError > prev+1e-9 {
			t.Errorf("PLC error rose at m=%d: %v > %v", m, res.PLCError, prev)
		}
		prev = res.PLCError
	}
}

func TestProcessExactSearchMeetsBudget(t *testing.T) {
	img := testImg(t, "girl")
	const budget = 8.0
	res, err := Process(img, Options{MaxDistortionPercent: budget, ExactSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedDistortion > budget && res.Range < 255 {
		t.Errorf("predicted distortion %v exceeds budget %v", res.PredictedDistortion, budget)
	}
	// The equalization-based transform should not be wildly worse than
	// the linear-reduction prediction at the same range; typically it is
	// better because merging follows the histogram.
	if res.AchievedDistortion > res.PredictedDistortion+10 {
		t.Errorf("achieved %v far above predicted %v", res.AchievedDistortion, res.PredictedDistortion)
	}
}

func TestProcessCurveLookupMode(t *testing.T) {
	img := testImg(t, "west")
	curve := smallCurve(t)
	res, err := Process(img, Options{MaxDistortionPercent: 10, Curve: curve})
	if err != nil {
		t.Fatal(err)
	}
	if res.Range < 50 || res.Range > 255 {
		t.Errorf("range %d outside curve domain", res.Range)
	}
	// Worst-case mode is at least as conservative.
	resW, err := Process(img, Options{MaxDistortionPercent: 10, Curve: curve, WorstCase: true})
	if err != nil {
		t.Fatal(err)
	}
	if resW.Range < res.Range {
		t.Errorf("worst-case range %d below average range %d", resW.Range, res.Range)
	}
	if resW.PowerSavingPercent > res.PowerSavingPercent+1e-9 {
		t.Error("worst-case mode should not save more power")
	}
}

func TestProcessTighterBudgetSavesLess(t *testing.T) {
	img := testImg(t, "elaine")
	curve := smallCurve(t)
	res2, err := Process(img, Options{MaxDistortionPercent: 2, Curve: curve})
	if err != nil {
		t.Fatal(err)
	}
	res20, err := Process(img, Options{MaxDistortionPercent: 20, Curve: curve})
	if err != nil {
		t.Fatal(err)
	}
	if res2.PowerSavingPercent > res20.PowerSavingPercent {
		t.Errorf("tighter budget saved more: %v%% vs %v%%",
			res2.PowerSavingPercent, res20.PowerSavingPercent)
	}
}

func TestProcessWithDriver(t *testing.T) {
	img := testImg(t, "lena")
	cfg := driver.DefaultConfig
	res, err := Process(img, Options{DynamicRange: 150, Driver: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program == nil {
		t.Fatal("expected a PLRD program")
	}
	if res.RealizationError > 5 {
		t.Errorf("hardware realization error %v too large", res.RealizationError)
	}
	if math.Abs(res.Program.Beta-res.Beta) > 1e-12 {
		t.Error("program β disagrees with result β")
	}
}

func TestProcessSegmentsExceedDriverSources(t *testing.T) {
	img := testImg(t, "lena")
	cfg := driver.Config{Vdd: 3.3, Sources: 4, DACBits: 8}
	if _, err := Process(img, Options{DynamicRange: 150, Segments: 10, Driver: &cfg}); err == nil {
		t.Error("10 segments on a 4-source driver should fail")
	}
}

func TestProcessValidation(t *testing.T) {
	img := testImg(t, "lena")
	if _, err := Process(nil, Options{DynamicRange: 100}); err == nil {
		t.Error("nil image should error")
	}
	if _, err := Process(img, Options{}); err == nil {
		t.Error("no budget and no range should error")
	}
	if _, err := Process(img, Options{DynamicRange: 300}); err == nil {
		t.Error("range > 255 should error")
	}
	if _, err := Process(img, Options{DynamicRange: -5}); err == nil {
		t.Error("negative range should error")
	}
	if _, err := Process(img, Options{MaxDistortionPercent: -2}); err == nil {
		t.Error("negative budget should error")
	}
	if _, err := Process(img, Options{DynamicRange: 100, Segments: -1}); err == nil {
		t.Error("negative segments should error")
	}
}

func TestProcessCustomSubsystem(t *testing.T) {
	img := testImg(t, "pout")
	sub := power.Subsystem{CCFL: power.DefaultCCFL, TFT: power.TFTPanel{A: 0, B: 0, C: 5}}
	res, err := Process(img, Options{DynamicRange: 100, Subsystem: &sub})
	if err != nil {
		t.Fatal(err)
	}
	// With a 5 W constant panel the relative saving shrinks.
	def, err := Process(img, Options{DynamicRange: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerSavingPercent >= def.PowerSavingPercent {
		t.Errorf("heavier fixed panel power should reduce relative saving: %v vs %v",
			res.PowerSavingPercent, def.PowerSavingPercent)
	}
}

func TestCompensatedPreview(t *testing.T) {
	img := testImg(t, "splash")
	res, err := Process(img, Options{DynamicRange: 128})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := res.CompensatedPreview()
	if err != nil {
		t.Fatal(err)
	}
	// The preview spreads the compressed range back over ~[0,255]: its
	// dynamic range must be near full while the transformed image's is
	// capped at 128.
	hPrev := histogram.Of(prev)
	hTrans := histogram.Of(res.Transformed)
	if hTrans.DynamicRange() > 128 {
		t.Errorf("transformed range %d exceeds target", hTrans.DynamicRange())
	}
	if hPrev.DynamicRange() < 240 {
		t.Errorf("preview range %d, want near-full after compensation", hPrev.DynamicRange())
	}
}

func TestProcessAchievedBelowLinearPrediction(t *testing.T) {
	// HEBS's selling point: at the same range, equalization-driven
	// merging distorts less than blind linear reduction for images with
	// non-uniform histograms.
	for _, name := range []string{"splash", "housea", "pout"} {
		img := testImg(t, name)
		res, err := Process(img, Options{DynamicRange: 100})
		if err != nil {
			t.Fatal(err)
		}
		linear, err := chart.RangeReductionDistortion(img, 100, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.AchievedDistortion > linear+2 {
			t.Errorf("%s: HEBS distortion %v clearly exceeds linear reduction %v",
				name, res.AchievedDistortion, linear)
		}
	}
}

func TestProcessEqualizerVariants(t *testing.T) {
	img := testImg(t, "splash")
	for _, eq := range []Equalizer{EqualizerGHE, EqualizerClipped, EqualizerBBHE} {
		res, err := Process(img, Options{DynamicRange: 140, Equalizer: eq})
		if err != nil {
			t.Fatalf("%v: %v", eq, err)
		}
		if !res.Lambda.IsMonotone() {
			t.Errorf("%v: Λ not monotone", eq)
		}
		h := histogram.Of(res.Transformed)
		if h.MaxLevel() > 140 {
			t.Errorf("%v: transformed exceeds range: %d", eq, h.MaxLevel())
		}
		if res.PowerSavingPercent <= 0 {
			t.Errorf("%v: no saving", eq)
		}
	}
}

func TestProcessEqualizerVariantsDiffer(t *testing.T) {
	img := testImg(t, "splash")
	ghe, err := Process(img, Options{DynamicRange: 140})
	if err != nil {
		t.Fatal(err)
	}
	clipped, err := Process(img, Options{DynamicRange: 140, Equalizer: EqualizerClipped})
	if err != nil {
		t.Fatal(err)
	}
	if ghe.Transformed.Equal(clipped.Transformed) {
		t.Error("clipped equalizer produced identical output to GHE on a skewed image")
	}
}

func TestProcessUnknownEqualizer(t *testing.T) {
	img := testImg(t, "lena")
	if _, err := Process(img, Options{DynamicRange: 100, Equalizer: Equalizer(99)}); err == nil {
		t.Error("unknown equalizer should error")
	}
}

func TestEqualizerString(t *testing.T) {
	if EqualizerGHE.String() != "ghe" || EqualizerClipped.String() != "clipped" ||
		EqualizerBBHE.String() != "bbhe" {
		t.Error("Equalizer names wrong")
	}
	if Equalizer(42).String() != "equalizer(42)" {
		t.Errorf("unknown equalizer name: %s", Equalizer(42))
	}
}

func TestProcessColor(t *testing.T) {
	lum := testImg(t, "peppers")
	img := rgb.FromGray(lum)
	// Tint the image so channels differ: boost red, cut blue.
	for p := 0; p < img.W*img.H; p++ {
		r := int(img.Pix[3*p]) + 30
		if r > 255 {
			r = 255
		}
		b := int(img.Pix[3*p+2]) - 30
		if b < 0 {
			b = 0
		}
		img.Pix[3*p] = uint8(r)
		img.Pix[3*p+2] = uint8(b)
	}
	res, err := ProcessColor(img, Options{DynamicRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.TransformedColor == nil || res.Result == nil {
		t.Fatal("missing outputs")
	}
	// Every channel passed through the same Λ.
	for p := 0; p < 16; p++ {
		for c := 0; c < 3; c++ {
			in := img.Pix[3*p+c]
			out := res.TransformedColor.Pix[3*p+c]
			if out != res.Lambda[in] {
				t.Fatalf("channel %d pixel %d: %d -> %d, Λ says %d", c, p, in, out, res.Lambda[in])
			}
		}
	}
	// β decided on luma matches a plain luma run.
	l := gray.New(img.W, img.H)
	if err := img.LumaInto(l); err != nil {
		t.Fatal(err)
	}
	plain, err := Process(l, Options{DynamicRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Beta != plain.Beta {
		t.Errorf("color β %v != luma β %v", res.Beta, plain.Beta)
	}
	// Preview spreads back to near-full range.
	prev, err := res.CompensatedColorPreview()
	if err != nil {
		t.Fatal(err)
	}
	// Backlight compensation saturates the largest channel first, so
	// check the brightest channel value anywhere in the frame.
	var hi uint8
	for _, v := range prev.Pix {
		hi = max(hi, v)
	}
	if hi < 240 {
		t.Errorf("compensated preview max channel %d, want near 255", hi)
	}
}

func TestPlanFromHistogramMatchesProcess(t *testing.T) {
	img := testImg(t, "autumn")
	cfg := driver.DefaultConfig
	res, err := Process(img, Options{DynamicRange: 140, Driver: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planFromHistogramCtx(context.Background(), nil, histogram.Of(img), 140, cfg.Sources, &cfg, EqualizerGHE)
	if err != nil {
		t.Fatal(err)
	}
	if *plan.Lambda != *res.Lambda {
		t.Error("histogram-only plan disagrees with the full pipeline's Λ")
	}
	if plan.Beta != res.Beta || plan.Range != res.Range {
		t.Errorf("plan operating point (%v,%d) != pipeline (%v,%d)",
			plan.Beta, plan.Range, res.Beta, res.Range)
	}
	if plan.Program == nil {
		t.Fatal("expected a PLRD program")
	}
	if len(plan.Program.Taps) != len(res.Program.Taps) {
		t.Error("program tap counts differ")
	}
	for i := range plan.Program.Taps {
		if plan.Program.Taps[i] != res.Program.Taps[i] {
			t.Fatalf("tap %d differs", i)
		}
	}
}

func TestPlanFromHistogramValidation(t *testing.T) {
	h := histogram.Of(testImg(t, "lena"))
	if _, err := planFromHistogramCtx(context.Background(), nil, nil, 100, 0, nil, EqualizerGHE); err == nil {
		t.Error("nil histogram should error")
	}
	if _, err := planFromHistogramCtx(context.Background(), nil, h, 0, 0, nil, EqualizerGHE); err == nil {
		t.Error("range 0 should error")
	}
	if _, err := planFromHistogramCtx(context.Background(), nil, h, 256, 0, nil, EqualizerGHE); err == nil {
		t.Error("range > 255 should error")
	}
	if _, err := planFromHistogramCtx(context.Background(), nil, h, 100, 0, nil, Equalizer(9)); err == nil {
		t.Error("unknown equalizer should error")
	}
	// No driver: still a valid software plan.
	plan, err := planFromHistogramCtx(context.Background(), nil, h, 100, 4, nil, EqualizerBBHE)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Program != nil {
		t.Error("no driver config should mean no program")
	}
	if len(plan.Breakpoints) > 5 {
		t.Errorf("segment budget not respected: %d breakpoints", len(plan.Breakpoints))
	}
}

func TestDitheredPreview(t *testing.T) {
	img := testImg(t, "pout")
	res, err := Process(img, Options{DynamicRange: 60}) // aggressive: visible banding
	if err != nil {
		t.Fatal(err)
	}
	plain, err := res.CompensatedPreview()
	if err != nil {
		t.Fatal(err)
	}
	dithered, err := res.DitheredPreview()
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(m *gray.Image) int { return m.Statistics().NumLevels }
	if distinct(dithered) <= distinct(plain) {
		t.Errorf("dithered preview has %d levels, plain %d; dithering should break banding",
			distinct(dithered), distinct(plain))
	}
	// Means stay comparable (dithering is tone-preserving).
	dm := dithered.Statistics().Mean
	pm := plain.Statistics().Mean
	if math.Abs(dm-pm) > 3 {
		t.Errorf("dithered mean %v drifted from plain %v", dm, pm)
	}
}

func TestProcessColorValidation(t *testing.T) {
	if _, err := ProcessColor(nil, Options{DynamicRange: 100}); err == nil {
		t.Error("nil color image should error")
	}
	img := rgb.FromGray(testImg(t, "lena"))
	if _, err := ProcessColor(img, Options{}); err == nil {
		t.Error("missing operating point should error")
	}
}

func TestTransformedUsesFullTargetRange(t *testing.T) {
	img := testImg(t, "baboon")
	res, err := Process(img, Options{DynamicRange: 200})
	if err != nil {
		t.Fatal(err)
	}
	_, hi := res.Lambda.Range()
	if int(hi) < 195 {
		t.Errorf("Λ tops out at %d; should use the full target range 200", hi)
	}
	var _ = transform.Levels // keep import if assertions change
}
