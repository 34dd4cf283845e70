package chart

import (
	"errors"
	"math"
	"testing"
	"time"

	"hebs/internal/gray"
	"hebs/internal/power"
	"hebs/internal/quality"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// smallSuite keeps curve tests fast: 4 representative images at 64×64.
func smallSuite(t *testing.T) []sipi.NamedImage {
	t.Helper()
	var out []sipi.NamedImage
	for _, name := range []string{"lena", "baboon", "pout", "housea"} {
		img, err := sipi.Generate(name, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sipi.NamedImage{Name: name, Image: img})
	}
	return out
}

func TestDefaultRanges(t *testing.T) {
	r := DefaultRanges()
	if len(r) != 10 {
		t.Fatalf("Figure 7 sweeps ten ranges, got %d", len(r))
	}
	if r[0] != 50 || r[len(r)-1] != 250 {
		t.Errorf("ranges span [%d,%d], want [50,250]", r[0], r[len(r)-1])
	}
	for i := 1; i < len(r); i++ {
		if r[i] <= r[i-1] {
			t.Fatalf("ranges not increasing at %d", i)
		}
	}
}

func TestRangeReductionDistortionMonotone(t *testing.T) {
	img, err := sipi.Generate("lena", 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, r := range []int{50, 100, 150, 200, 250} {
		d, err := RangeReductionDistortion(img, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 {
			t.Fatalf("negative distortion %v at R=%d", d, r)
		}
		if d > prev+2 { // small aliasing bumps allowed
			t.Errorf("distortion rose sharply from %v to %v at R=%d", prev, d, r)
		}
		prev = d
	}
	// Near-full range is near-free.
	d, err := RangeReductionDistortion(img, 254, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1.5 {
		t.Errorf("distortion at R=254 = %v, want ~0", d)
	}
}

func TestTransformDistortionIdentityZero(t *testing.T) {
	img, err := sipi.Generate("peppers", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := TransformDistortion(img, transform.FromFunc(func(x float64) float64 { return x }), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Errorf("identity distortion = %v, want 0", d)
	}
}

func TestTransformDistortionRejectsNonMonotone(t *testing.T) {
	img, err := sipi.Generate("peppers", 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	bad := transform.FromFunc(func(x float64) float64 { return x })
	bad[10] = 200
	bad[11] = 5
	if _, err := TransformDistortion(img, bad, nil); err == nil {
		t.Error("non-monotone LUT should error")
	}
}

func TestBuildCurveShape(t *testing.T) {
	c, err := Build(smallSuite(t), Options{Ranges: []int{60, 120, 180, 240}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Samples) != 4*4 {
		t.Fatalf("samples = %d, want 16", len(c.Samples))
	}
	// Fitted average curve must be non-increasing in range.
	prev := math.Inf(1)
	for _, r := range c.Ranges {
		v := c.PredictedDistortion(r, false)
		if v > prev+1e-9 {
			t.Errorf("avg curve rises at R=%d: %v > %v", r, v, prev)
		}
		prev = v
		// Worst dominates average.
		if c.PredictedDistortion(r, true) < v-1e-9 {
			t.Errorf("worst fit below average at R=%d", r)
		}
	}
	// Savings decrease with range.
	for _, s := range c.Samples {
		if s.Saving < 0 || s.Saving > 100 {
			t.Errorf("saving %v out of [0,100]", s.Saving)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	suite := smallSuite(t)
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("empty suite should error")
	}
	if _, err := Build(suite, Options{Ranges: []int{1}}); err == nil {
		t.Error("range < 2 should error")
	}
	if _, err := Build(suite, Options{Ranges: []int{300}}); err == nil {
		t.Error("range > 255 should error")
	}
	if _, err := Build(suite, Options{Ranges: []int{100, 100}}); err == nil {
		t.Error("duplicate ranges should error")
	}
}

// TestBuildReturnsMetricError: a metric that always fails makes Build
// return that error instead of blocking. Each image's worker stops at
// its first failure, so a pool that hands images to workers over an
// unbuffered channel blocks once every worker has stopped.
func TestBuildReturnsMetricError(t *testing.T) {
	suite, err := sipi.Suite(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	failing := errors.New("metric failed")
	metric := func(*gray.Image, quality.Recon) (float64, error) { return 0, failing }
	done := make(chan error, 1)
	go func() {
		_, err := Build(suite, Options{Metric: metric})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, failing) {
			t.Errorf("Build error = %v, want the metric's", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Build did not return within 10 s after its metric failed")
	}
}

func TestMinRangeInvertsCurve(t *testing.T) {
	c, err := Build(smallSuite(t), Options{Ranges: []int{50, 100, 150, 200, 250}})
	if err != nil {
		t.Fatal(err)
	}
	// A tighter budget demands a larger range.
	r5, err := c.MinRange(5, false)
	if err != nil {
		t.Fatal(err)
	}
	r15, err := c.MinRange(15, false)
	if err != nil {
		t.Fatal(err)
	}
	if r5 < r15 {
		t.Errorf("R(5%%)=%d < R(15%%)=%d; tighter budget must give larger range", r5, r15)
	}
	// The returned range's predicted distortion respects the budget
	// (within the curve's domain).
	if d := c.PredictedDistortion(r5, false); d > 5+1e-6 && r5 < 250 {
		t.Errorf("predicted distortion at R(5%%)=%d is %v > 5", r5, d)
	}
	// Worst-case lookup is at least as conservative.
	r5w, err := c.MinRange(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if r5w < r5 {
		t.Errorf("worst-case R (%d) below average R (%d)", r5w, r5)
	}
	if _, err := c.MinRange(-1, false); err == nil {
		t.Error("negative budget should error")
	}
}

func TestMinRangeClampsToSweep(t *testing.T) {
	c, err := Build(smallSuite(t), Options{Ranges: []int{50, 150, 250}})
	if err != nil {
		t.Fatal(err)
	}
	// Huge budget: smallest swept range.
	r, err := c.MinRange(1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if r != 50 {
		t.Errorf("huge budget -> R=%d, want sweep minimum 50", r)
	}
	// Zero budget: clamps high.
	r, err = c.MinRange(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if r < 250 {
		t.Errorf("zero budget -> R=%d, want >= 250", r)
	}
}

// TestMinRangeExact pins the search's contract on every suite image: D(R)
// is not monotone in R, so the bisection returns a local crossing —
// D(R) ≤ budget, and R = 2 or D(R−1) > budget — not necessarily the
// smallest passing range. R = 255 with D(255) over budget means no
// probe passed.
func TestMinRangeExact(t *testing.T) {
	suite, err := sipi.Suite(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range suite {
		for _, budget := range []float64{5, 10, 20} {
			r, err := MinRangeExact(ni.Image, budget, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r < 2 || r > 255 {
				t.Fatalf("%s budget %v: R = %d out of domain", ni.Name, budget, r)
			}
			d, err := RangeReductionDistortion(ni.Image, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d > budget && r < 255 {
				t.Errorf("%s budget %v: distortion at returned R=%d is %v", ni.Name, budget, r, d)
			}
			if r > 2 {
				dPrev, err := RangeReductionDistortion(ni.Image, r-1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if dPrev <= budget {
					t.Errorf("%s budget %v: R-1=%d already satisfies the budget (%v); not a local crossing", ni.Name, budget, r-1, dPrev)
				}
			}
		}
	}
	img := suite[0].Image
	if _, err := MinRangeExact(img, -1, nil); err == nil {
		t.Error("negative budget should error")
	}
}

func TestMinRangeExactTighterBudgetLargerRange(t *testing.T) {
	img, err := sipi.Generate("housea", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MinRangeExact(img, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r20, err := MinRangeExact(img, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < r20 {
		t.Errorf("R(2%%)=%d < R(20%%)=%d", r2, r20)
	}
}

func TestSSIMMetricUsable(t *testing.T) {
	img, err := sipi.Generate("girl", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RangeReductionDistortion(img, 80, quality.SSIMMetric)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 || d > 200 {
		t.Errorf("SSIM distortion = %v out of scale", d)
	}
	// SSIM distortion at full range is also ~0.
	d254, err := RangeReductionDistortion(img, 254, quality.SSIMMetric)
	if err != nil {
		t.Fatal(err)
	}
	if d254 > 1.5 {
		t.Errorf("SSIM distortion at R=254 = %v, want ~0", d254)
	}
}

func TestBuildCustomSubsystem(t *testing.T) {
	// A subsystem with a free backlight makes savings collapse towards
	// the small TFT delta; exercise the Subsystem option plumbing.
	sub := power.Subsystem{
		CCFL: power.CCFL{Cs: 0.5, Alin: 0, Clin: 1, Asat: 0, Csat: 1},
		TFT:  power.DefaultTFT,
	}
	c, err := Build(smallSuite(t), Options{Ranges: []int{100, 200}, Subsystem: &sub})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Samples {
		if math.Abs(s.Saving) > 5 {
			t.Errorf("constant-power backlight should give ~0 saving, got %v", s.Saving)
		}
	}
}
