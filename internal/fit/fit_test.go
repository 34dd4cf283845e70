package fit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSolveLinearIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{3, 4}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 4 {
		t.Errorf("x = %v, want [3 4]", x)
	}
}

func TestSolveLinearGeneral(t *testing.T) {
	a := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearNeedsPivot(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{5, 7}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 5 {
		t.Errorf("x = %v, want [7 5]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinear(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearBadShape(t *testing.T) {
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("empty system should error")
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square should error")
	}
	if _, err := SolveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched b should error")
	}
}

func TestSolveLinearDoesNotMutate(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{1, 2}
	_, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][0] != 1 || b[0] != 1 {
		t.Error("SolveLinear mutated inputs")
	}
}

func TestPolyEval(t *testing.T) {
	p := Poly{1, 2, 3} // 1 + 2x + 3x^2
	if v := p.Eval(2); v != 17 {
		t.Errorf("Eval(2) = %v, want 17", v)
	}
	if v := (Poly{}).Eval(5); v != 0 {
		t.Errorf("empty poly Eval = %v, want 0", v)
	}
}

func TestPolyFitExact(t *testing.T) {
	// Fit y = 2 - 3x + 0.5x^2 exactly from samples.
	truth := Poly{2, -3, 0.5}
	var xs, ys []float64
	for i := 0; i < 10; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, truth.Eval(x))
	}
	p, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(p[i]-truth[i]) > 1e-8 {
			t.Errorf("c[%d] = %v, want %v", i, p[i], truth[i])
		}
	}
	for i := range xs {
		if d := math.Abs(p.Eval(xs[i]) - ys[i]); d > 1e-8 {
			t.Errorf("residual at x=%v is %v, want ~0", xs[i], d)
		}
	}
}

func TestPolyFitNoisyMean(t *testing.T) {
	// Degree-0 fit is the mean.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	p, err := PolyFit(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-4) > 1e-9 {
		t.Errorf("degree-0 fit = %v, want 4", p[0])
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1}, -1); err == nil {
		t.Error("negative degree should error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 3); err == nil {
		t.Error("too few points should error")
	}
	// All identical x: singular Vandermonde.
	if _, err := PolyFit([]float64{2, 2, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("degenerate x should error")
	}
}

func TestPolyFitResidualOrthogonality(t *testing.T) {
	// Least squares: residuals are orthogonal to the column of ones,
	// i.e. they sum to ~0.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{1, 0, 4, 2, 6, 3}
	p, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := range xs {
		sum += ys[i] - p.Eval(xs[i])
	}
	if math.Abs(sum) > 1e-8 {
		t.Errorf("residual sum = %v, want ~0", sum)
	}
}

func TestEnvelopeFitDominates(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	ys := []float64{1, 5, 2, 8, 3, 9, 2, 6}
	env, err := EnvelopeFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if env.Eval(xs[i]) < ys[i]-1e-9 {
			t.Errorf("envelope below data at x=%v: %v < %v", xs[i], env.Eval(xs[i]), ys[i])
		}
	}
	// Envelope touches at least one point (tight).
	touch := false
	for i := range xs {
		if math.Abs(env.Eval(xs[i])-ys[i]) < 1e-9 {
			touch = true
		}
	}
	if !touch {
		t.Error("envelope does not touch any data point")
	}
}

func TestEnvelopeFitPropagatesError(t *testing.T) {
	if _, err := EnvelopeFit([]float64{1}, []float64{1}, 2); err == nil {
		t.Error("EnvelopeFit with too few points should error")
	}
}

func TestNewLinearSortsAndDedups(t *testing.T) {
	l, err := NewLinear([]Point{{3, 30}, {1, 10}, {1, 11}, {2, 20}})
	if err != nil {
		t.Fatal(err)
	}
	pts := l.Points()
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if pts[0].X != 1 || pts[0].Y != 11 {
		t.Errorf("dedup kept %v, want later Y=11", pts[0])
	}
	if _, err := NewLinear(nil); err == nil {
		t.Error("empty NewLinear should error")
	}
}

func TestLinearEval(t *testing.T) {
	l, _ := NewLinear([]Point{{0, 0}, {10, 100}})
	if v := l.Eval(5); v != 50 {
		t.Errorf("Eval(5) = %v, want 50", v)
	}
	if v := l.Eval(-1); v != 0 {
		t.Errorf("Eval(-1) = %v, want clamp to 0", v)
	}
	if v := l.Eval(20); v != 100 {
		t.Errorf("Eval(20) = %v, want clamp to 100", v)
	}
	if v := l.Eval(0); v != 0 {
		t.Errorf("Eval(0) = %v, want 0", v)
	}
	if v := l.Eval(10); v != 100 {
		t.Errorf("Eval(10) = %v, want 100", v)
	}
}

func TestLinearEvalMultiSegment(t *testing.T) {
	l, _ := NewLinear([]Point{{0, 0}, {1, 10}, {2, 0}})
	if v := l.Eval(0.5); v != 5 {
		t.Errorf("Eval(0.5) = %v, want 5", v)
	}
	if v := l.Eval(1.5); v != 5 {
		t.Errorf("Eval(1.5) = %v, want 5", v)
	}
}

func TestLinearEvalInterpolationProperty(t *testing.T) {
	l, _ := NewLinear([]Point{{0, 2}, {4, 6}, {8, 1}, {12, 9}})
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		x := math.Mod(math.Abs(raw), 12)
		v := l.Eval(x)
		return v >= 1-1e-9 && v <= 9+1e-9 // within node Y range
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvertMonotoneIncreasing(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	x, err := InvertMonotone(f, 9, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-3) > 1e-6 {
		t.Errorf("invert x^2=9 -> %v, want 3", x)
	}
}

func TestInvertMonotoneDecreasing(t *testing.T) {
	f := func(x float64) float64 { return 100 - x }
	x, err := InvertMonotone(f, 40, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-60) > 1e-6 {
		t.Errorf("invert 100-x=40 -> %v, want 60", x)
	}
}

func TestInvertMonotoneClamps(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, _ := InvertMonotone(f, -5, 0, 10); x != 0 {
		t.Errorf("below-range target should clamp to xlo, got %v", x)
	}
	if x, _ := InvertMonotone(f, 50, 0, 10); x != 10 {
		t.Errorf("above-range target should clamp to xhi, got %v", x)
	}
	g := func(x float64) float64 { return -x }
	if x, _ := InvertMonotone(g, 5, 0, 10); x != 0 {
		t.Errorf("decreasing above-range should clamp to xlo, got %v", x)
	}
	if x, _ := InvertMonotone(g, -50, 0, 10); x != 10 {
		t.Errorf("decreasing below-range should clamp to xhi, got %v", x)
	}
}

func TestInvertMonotoneBadInterval(t *testing.T) {
	if _, err := InvertMonotone(func(x float64) float64 { return x }, 0, 5, 1); err == nil {
		t.Error("xlo > xhi should error")
	}
}

func TestInvertMonotoneRoundTripProperty(t *testing.T) {
	f := func(x float64) float64 { return 3*x + 1 }
	prop := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		x0 := math.Mod(math.Abs(raw), 10)
		target := f(x0)
		x, err := InvertMonotone(f, target, 0, 10)
		return err == nil && math.Abs(x-x0) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRSquaredPerfectFit(t *testing.T) {
	truth := Poly{1, 2, -0.5}
	var xs, ys []float64
	for i := 0; i < 8; i++ {
		xs = append(xs, float64(i))
		ys = append(ys, truth.Eval(float64(i)))
	}
	r2, err := truth.RSquared(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2-1) > 1e-12 {
		t.Errorf("perfect fit R² = %v, want 1", r2)
	}
}

func TestRSquaredMeanModelIsZero(t *testing.T) {
	// Fitting the constant mean gives R² = 0 by definition.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	meanPoly := Poly{4}
	r2, err := meanPoly.RSquared(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2) > 1e-12 {
		t.Errorf("mean model R² = %v, want 0", r2)
	}
}

func TestRSquaredConstantData(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{5, 5, 5}
	exact := Poly{5}
	r2, err := exact.RSquared(xs, ys)
	if err != nil || r2 != 1 {
		t.Errorf("exact constant fit R² = %v, %v; want 1", r2, err)
	}
	off := Poly{6}
	r2, err = off.RSquared(xs, ys)
	if err != nil || r2 != 0 {
		t.Errorf("wrong constant fit R² = %v, %v; want 0", r2, err)
	}
}

func TestRSquaredErrors(t *testing.T) {
	p := Poly{1}
	if _, err := p.RSquared([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := p.RSquared(nil, nil); err == nil {
		t.Error("empty data should error")
	}
}
