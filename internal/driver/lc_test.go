package driver

import (
	"math"
	"testing"
	"testing/quick"

	"hebs/internal/transform"
)

func TestValidateLCBuiltins(t *testing.T) {
	models := []LCModel{LinearLC{}}
	g, err := NewGammaLC(2.2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSCurveLC(8)
	if err != nil {
		t.Fatal(err)
	}
	models = append(models, g, s)
	// Every built-in transmittance curve is monotone and stays in
	// [0,1]; TestLCEndpoints and TestLCRoundTripProperty cover the
	// endpoints and the inverse.
	const n = 256
	for _, m := range models {
		prev := -1.0
		for i := 0; i <= n; i++ {
			v := float64(i) / n
			tr := m.Transmittance(v)
			if tr < prev-1e-9 || tr < 0 || tr > 1 {
				t.Errorf("%s: transmittance %v at v=%v after %v", m.Name(), tr, v, prev)
				break
			}
			prev = tr
		}
	}
}

func TestLCConstructors(t *testing.T) {
	for _, g := range []float64{0, -1, math.NaN()} {
		if _, err := NewGammaLC(g); err == nil {
			t.Errorf("NewGammaLC(%v) should error", g)
		}
		if _, err := NewSCurveLC(g); err == nil {
			t.Errorf("NewSCurveLC(%v) should error", g)
		}
	}
}

func TestLCRoundTripProperty(t *testing.T) {
	g, _ := NewGammaLC(2.2)
	s, _ := NewSCurveLC(10)
	for _, m := range []LCModel{LinearLC{}, g, s} {
		f := func(raw uint8) bool {
			v := float64(raw) / 255
			tr := m.Transmittance(v)
			back := m.Voltage(tr)
			return math.Abs(m.Transmittance(back)-tr) < 1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestLCEndpoints(t *testing.T) {
	g, _ := NewGammaLC(2.2)
	s, _ := NewSCurveLC(6)
	for _, m := range []LCModel{LinearLC{}, g, s} {
		if v := m.Transmittance(0); math.Abs(v) > 1e-9 {
			t.Errorf("%s: t(0) = %v", m.Name(), v)
		}
		if v := m.Transmittance(1); math.Abs(v-1) > 1e-9 {
			t.Errorf("%s: t(1) = %v", m.Name(), v)
		}
	}
}

func TestGammaLCCurvature(t *testing.T) {
	g, _ := NewGammaLC(2.2)
	// Power law with gamma > 1 lies below the diagonal.
	if g.Transmittance(0.5) >= 0.5 {
		t.Errorf("gamma 2.2 at 0.5 = %v, want < 0.5", g.Transmittance(0.5))
	}
}

func TestSCurveSymmetry(t *testing.T) {
	s, _ := NewSCurveLC(8)
	// Logistic centered at 0.5: t(0.5) = 0.5 and t(v)+t(1-v) = 1.
	if math.Abs(s.Transmittance(0.5)-0.5) > 1e-9 {
		t.Errorf("s-curve midpoint = %v", s.Transmittance(0.5))
	}
	for _, v := range []float64{0.1, 0.25, 0.4} {
		sum := s.Transmittance(v) + s.Transmittance(1-v)
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("s-curve asymmetric at %v: sum = %v", v, sum)
		}
	}
}

// identityProgram programs a full-range identity ramp at β=1.
func identityProgram(t *testing.T, cfg Config) *Program {
	t.Helper()
	prog, err := ProgramHierarchical(cfg,
		[]transform.Point{{X: 0, Y: 0}, {X: 255, Y: 255}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestNonlinearCellBendsTwoTapRamp(t *testing.T) {
	// With only two taps a nonlinear cell cannot produce a straight
	// grayscale ramp: the midpoint deviates.
	s, _ := NewSCurveLC(8)
	cfg := Config{Vdd: 3.3, Sources: 10, DACBits: 0, LC: s}
	prog := identityProgram(t, cfg)
	tr, err := prog.TransmittanceAt(128)
	if err != nil {
		t.Fatal(err)
	}
	// Two taps: endpoints exact but a straight voltage interpolation
	// through an S-curve pulls the midpoint away from 0.5? For the
	// symmetric S-curve the midpoint actually survives; quarter points
	// cannot.
	q, err := prog.TransmittanceAt(64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-0.25) < 0.02 {
		t.Errorf("quarter point %v should deviate from 0.25 under an S-curve cell", q)
	}
	_ = tr
}

func TestMoreTapsLinearizeNonlinearCell(t *testing.T) {
	// The point of the reference ladder: more taps make the realized
	// ramp straighter even though the cell is strongly nonlinear.
	s, _ := NewSCurveLC(8)
	target := transform.FromFunc(func(x float64) float64 { return x })
	var prev = math.Inf(1)
	for _, taps := range []int{2, 4, 10, 32} {
		cfg := Config{Vdd: 3.3, Sources: taps, DACBits: 0, LC: s}
		pts := make([]transform.Point, taps+1)
		for i := 0; i <= taps; i++ {
			x := i * 255 / taps
			pts[i] = transform.Point{X: x, Y: float64(x)}
		}
		// Deduplicate possible X collisions from integer division.
		prog, err := ProgramHierarchical(cfg, dedupe(pts), 1)
		if err != nil {
			t.Fatal(err)
		}
		mse, err := prog.RealizationError(target)
		if err != nil {
			t.Fatal(err)
		}
		if mse > prev+1e-9 {
			t.Errorf("realization error rose with %d taps: %v > %v", taps, mse, prev)
		}
		prev = mse
	}
	if prev > 1.5 {
		t.Errorf("32 taps still leave MSE %v on the S-curve cell", prev)
	}
}

func TestLinearCellUnaffectedByLCPlumbing(t *testing.T) {
	// Explicit LinearLC must behave exactly like the nil default.
	pts := []transform.Point{{X: 0, Y: 0}, {X: 100, Y: 40}, {X: 255, Y: 200}}
	a, err := ProgramHierarchical(Config{Vdd: 3.3, Sources: 10, DACBits: 8}, pts, 200.0/255)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProgramHierarchical(Config{Vdd: 3.3, Sources: 10, DACBits: 8, LC: LinearLC{}}, pts, 200.0/255)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < transform.Levels; x += 9 {
		ta, _ := a.TransmittanceAt(x)
		tb, _ := b.TransmittanceAt(x)
		if ta != tb {
			t.Fatalf("nil vs LinearLC differ at %d: %v vs %v", x, ta, tb)
		}
	}
}

func TestGammaCellEq10Generalization(t *testing.T) {
	// With a gamma cell the programmed tap voltage is LC⁻¹(Y/(255β))·Vdd;
	// the tap's realized transmittance must still equal the target.
	g, _ := NewGammaLC(2.2)
	cfg := Config{Vdd: 3.3, Sources: 10, DACBits: 0, LC: g}
	pts := []transform.Point{{X: 0, Y: 0}, {X: 128, Y: 64}, {X: 255, Y: 127}}
	beta := 127.0 / 255
	prog, err := ProgramHierarchical(cfg, pts, beta)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		tr, err := prog.TransmittanceAt(p.X)
		if err != nil {
			t.Fatal(err)
		}
		want := p.Y / 255 / beta
		if want > 1 {
			want = 1
		}
		if math.Abs(tr-want) > 1e-9 {
			t.Errorf("tap %d: transmittance %v, want %v", i, tr, want)
		}
	}
}

func dedupe(pts []transform.Point) []transform.Point {
	out := pts[:1]
	for _, p := range pts[1:] {
		if p.X > out[len(out)-1].X {
			out = append(out, p)
		}
	}
	return out
}
