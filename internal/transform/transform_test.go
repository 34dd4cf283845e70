package transform

import (
	"math"
	"testing"
	"testing/quick"

	"hebs/internal/gray"
)

// identity returns Φ(x) = x (Figure 2a).
func identity() *LUT { return FromFunc(func(x float64) float64 { return x }) }

func TestIdentity(t *testing.T) {
	// FromFunc rounds the identity curve onto every level exactly.
	id := identity()
	for i := 0; i < Levels; i++ {
		if id[i] != uint8(i) {
			t.Fatalf("identity[%d] = %d", i, id[i])
		}
	}
	if !id.IsMonotone() {
		t.Error("identity must be monotone")
	}
	if id.DynamicRange() != 255 {
		t.Errorf("identity range = %d, want 255", id.DynamicRange())
	}
}

func TestApply(t *testing.T) {
	m := gray.New(2, 1)
	m.Pix = []uint8{10, 200}
	lut := identity()
	lut[10] = 99
	out := lut.Apply(m)
	if out.Pix[0] != 99 || out.Pix[1] != 200 {
		t.Errorf("Apply = %v", out.Pix)
	}
	if m.Pix[0] != 10 {
		t.Error("Apply mutated source")
	}
}

func TestBrightnessShift(t *testing.T) {
	lut, err := BrightnessShift(0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Φ(x) = min(1, x + 0.2): 0 -> 0.2*255 = 51.
	if lut[0] != 51 {
		t.Errorf("shift(0) = %d, want 51", lut[0])
	}
	if lut[255] != 255 {
		t.Errorf("shift(255) = %d, want 255", lut[255])
	}
	// Saturation: x >= 0.8 maps to 255.
	if lut[204] != 255 {
		t.Errorf("shift(204) = %d, want 255", lut[204])
	}
	if !lut.IsMonotone() {
		t.Error("brightness shift must be monotone")
	}
}

func TestBrightnessShiftIdentityAtBeta1(t *testing.T) {
	lut, err := BrightnessShift(1)
	if err != nil {
		t.Fatal(err)
	}
	if *lut != *identity() {
		t.Error("β=1 brightness shift should be identity")
	}
}

func TestContrastScale(t *testing.T) {
	lut, err := ContrastScale(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lut[0] != 0 {
		t.Errorf("scale(0) = %d, want 0", lut[0])
	}
	// x = 0.25 -> 0.5 -> 128 (rounding 127.5 -> 128).
	if lut[64] < 127 || lut[64] > 129 {
		t.Errorf("scale(64) = %d, want ~128", lut[64])
	}
	// Everything above β saturates.
	if lut[128] != 255 || lut[255] != 255 {
		t.Errorf("scale saturation wrong: %d %d", lut[128], lut[255])
	}
	if !lut.IsMonotone() {
		t.Error("contrast scale must be monotone")
	}
}

func TestBetaValidation(t *testing.T) {
	for _, beta := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := BrightnessShift(beta); err == nil {
			t.Errorf("BrightnessShift(%v) should error", beta)
		}
		if _, err := ContrastScale(beta); err == nil {
			t.Errorf("ContrastScale(%v) should error", beta)
		}
	}
}

func TestSingleBand(t *testing.T) {
	lut, err := SingleBand(0.2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if lut[0] != 0 || lut[25] != 0 {
		t.Errorf("below band should clamp to 0: %d %d", lut[0], lut[25])
	}
	if lut[255] != 255 || lut[230] != 255 {
		t.Errorf("above band should clamp to 255: %d %d", lut[255], lut[230])
	}
	// Mid-band: x=0.5 -> (0.5-0.2)/0.6 = 0.5 -> ~128.
	mid := lut[127]
	if mid < 126 || mid > 130 {
		t.Errorf("mid band = %d, want ~128", mid)
	}
	if !lut.IsMonotone() {
		t.Error("single band must be monotone")
	}
}

func TestSingleBandErrors(t *testing.T) {
	for _, band := range [][2]float64{{-0.1, 0.5}, {0.5, 1.1}, {0.6, 0.6}, {0.7, 0.3}} {
		if _, err := SingleBand(band[0], band[1]); err == nil {
			t.Errorf("SingleBand(%v,%v) should error", band[0], band[1])
		}
	}
}

func TestPiecewiseLinearRamp(t *testing.T) {
	lut, err := Piecewise([]Point{{0, 0}, {255, 255}})
	if err != nil {
		t.Fatal(err)
	}
	if *lut != *identity() {
		t.Error("two-point ramp should equal identity")
	}
}

func TestPiecewiseKBand(t *testing.T) {
	// Flat-slope-flat: a 3-segment k-band function (Figure 3 shape).
	lut, err := Piecewise([]Point{{0, 0}, {50, 0}, {200, 255}, {255, 255}})
	if err != nil {
		t.Fatal(err)
	}
	if lut[0] != 0 || lut[50] != 0 || lut[25] != 0 {
		t.Error("leading flat band wrong")
	}
	if lut[200] != 255 || lut[255] != 255 || lut[230] != 255 {
		t.Error("trailing flat band wrong")
	}
	if lut[125] != 128 { // midpoint of the slope: (125-50)/150*255 = 127.5 -> 128
		t.Errorf("slope midpoint = %d, want 128", lut[125])
	}
	if !lut.IsMonotone() {
		t.Error("k-band must be monotone")
	}
}

func TestPiecewiseValidation(t *testing.T) {
	cases := [][]Point{
		{},
		{{0, 0}},
		{{1, 0}, {255, 255}}, // doesn't start at 0
		{{0, 0}, {200, 255}}, // doesn't end at 255
		{{0, 0}, {100, 50}, {100, 60}, {255, 255}}, // duplicate X
		{{0, 100}, {100, 50}, {255, 255}},          // decreasing Y
	}
	for i, pts := range cases {
		if _, err := Piecewise(pts); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestPiecewiseFractionalY(t *testing.T) {
	lut, err := Piecewise([]Point{{0, 10.4}, {255, 200.6}})
	if err != nil {
		t.Fatal(err)
	}
	if lut[0] != 10 || lut[255] != 201 {
		t.Errorf("fractional endpoints rounded to %d,%d; want 10,201", lut[0], lut[255])
	}
}

func TestBreakpointsRoundTrip(t *testing.T) {
	orig, err := Piecewise([]Point{{0, 0}, {64, 32}, {128, 200}, {255, 255}})
	if err != nil {
		t.Fatal(err)
	}
	pts := orig.Breakpoints()
	if pts[0].X != 0 || pts[len(pts)-1].X != 255 {
		t.Fatalf("breakpoints must span [0,255]: %v", pts)
	}
	back, err := Piecewise(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Round trip through exact breakpoints differs by at most 1 level
	// (interpolation re-rounding).
	for i := 0; i < Levels; i++ {
		d := int(orig[i]) - int(back[i])
		if d < -1 || d > 1 {
			t.Fatalf("round trip off by %d at %d", d, i)
		}
	}
}

func TestBreakpointsOfIdentityMinimal(t *testing.T) {
	pts := identity().Breakpoints()
	if len(pts) != 2 {
		t.Errorf("identity should have 2 breakpoints, got %d", len(pts))
	}
}

func TestCompose(t *testing.T) {
	a, _ := ContrastScale(0.5)
	id := identity()
	if *a.Compose(id) != *a {
		t.Error("compose with identity should be unchanged")
	}
	if *id.Compose(a) != *a {
		t.Error("identity composed with a should be a")
	}
}

func TestRange(t *testing.T) {
	lut, _ := ScaleToRange(20, 120)
	lo, hi := lut.Range()
	if lo != 20 || hi != 120 {
		t.Errorf("range = [%d,%d], want [20,120]", lo, hi)
	}
	if lut.DynamicRange() != 100 {
		t.Errorf("dynamic range = %d, want 100", lut.DynamicRange())
	}
	if !lut.IsMonotone() {
		t.Error("scale to range must be monotone")
	}
}

func TestScaleToRangeErrors(t *testing.T) {
	if _, err := ScaleToRange(100, 50); err == nil {
		t.Error("inverted range should error")
	}
	lut, err := ScaleToRange(42, 42)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := lut.Range()
	if lo != 42 || hi != 42 {
		t.Errorf("degenerate range = [%d,%d], want [42,42]", lo, hi)
	}
}

func TestMSE(t *testing.T) {
	id := identity()
	if id.MSE(id) != 0 {
		t.Error("MSE to self must be 0")
	}
	shifted := FromFunc(func(x float64) float64 { return math.Min(1, x+2.0/255) })
	m := id.MSE(shifted)
	// Everything shifts by 2 except the top two entries.
	if m < 3 || m > 4 {
		t.Errorf("MSE = %v, want ~3.9", m)
	}
}

func TestFromFuncNaNClamp(t *testing.T) {
	lut := FromFunc(func(x float64) float64 {
		if x < 0.5 {
			return math.NaN()
		}
		return 2.0 // out of range high
	})
	if lut[0] != 0 {
		t.Errorf("NaN should map to 0, got %d", lut[0])
	}
	if lut[255] != 255 {
		t.Errorf("overflow should clamp to 255, got %d", lut[255])
	}
}

func TestMonotonePreservedUnderApplication(t *testing.T) {
	// Property: applying any monotone LUT preserves pixel ordering.
	f := func(gl8, gu8 uint8, a, b uint8) bool {
		gl := float64(gl8%120) / 255
		gu := gl + float64(gu8%100+20)/255
		if gu > 1 {
			gu = 1
		}
		if gu <= gl {
			return true
		}
		lut, err := SingleBand(gl, gu)
		if err != nil {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return lut[a] <= lut[b]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPseudoInverseOfIdentity(t *testing.T) {
	inv, err := identity().PseudoInverse()
	if err != nil {
		t.Fatal(err)
	}
	if *inv != *identity() {
		t.Error("pseudo-inverse of identity should be identity")
	}
	recon, err := identity().Reconstruction()
	if err != nil {
		t.Fatal(err)
	}
	if *recon != *identity() {
		t.Error("reconstruction through identity should be identity")
	}
}

func TestPseudoInverseRequiresMonotone(t *testing.T) {
	bad := identity()
	bad[100] = 5
	if _, err := bad.PseudoInverse(); err == nil {
		t.Error("non-monotone LUT should error")
	}
	if _, err := bad.Reconstruction(); err == nil {
		t.Error("Reconstruction of non-monotone LUT should error")
	}
}

func TestPseudoInverseMergeClasses(t *testing.T) {
	// Map pairs {2k, 2k+1} -> k. Representative of class k is the
	// rounded mean (2k + 2k+1)/2 -> 2k (banker-less round-half-up of
	// x.5 via integer midpoint: (4k+1+1)/2 = 2k+1? verify exact below).
	lut := FromFunc(func(x float64) float64 { return x / 2 })
	inv, err := lut.PseudoInverse()
	if err != nil {
		t.Fatal(err)
	}
	// Every produced level's representative must be inside its class.
	for y := 0; y < 128; y++ {
		rep := int(inv[y])
		if lut[rep] != uint8(y) {
			t.Fatalf("representative %d of level %d not in its class", rep, y)
		}
	}
}

func TestPseudoInverseFillsGaps(t *testing.T) {
	// ContrastScale(0.5) produces only even-ish outputs up to 255;
	// unproduced output levels must still be populated and monotone.
	lut, _ := ContrastScale(0.5)
	inv, err := lut.PseudoInverse()
	if err != nil {
		t.Fatal(err)
	}
	if !inv.IsMonotone() {
		t.Error("pseudo-inverse must be monotone")
	}
}

func TestPseudoInverseGapInterpolation(t *testing.T) {
	// A LUT that doubles values leaves odd outputs unproduced; the gap
	// fill must interpolate between neighbouring representatives.
	lut := FromFunc(func(x float64) float64 { return math.Min(1, 2*x) })
	inv, err := lut.PseudoInverse()
	if err != nil {
		t.Fatal(err)
	}
	// Produced outputs 0,2,4,... have representatives 0,1,2,...; the odd
	// gap at y=2k+1 should interpolate between k and k+1.
	for y := 1; y < 100; y += 2 {
		lo, hi := inv[y-1], inv[y+1]
		if inv[y] < lo || inv[y] > hi {
			t.Fatalf("gap fill at %d = %d outside [%d,%d]", y, inv[y], lo, hi)
		}
	}
}

func TestReconstructionBoundsErrorByClassWidth(t *testing.T) {
	// Reconstruction error is at most the merge class width.
	lut, _ := ScaleToRange(0, 63) // classes of width ~4
	recon, err := lut.Reconstruction()
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < Levels; x++ {
		d := int(recon[x]) - x
		if d < -4 || d > 4 {
			t.Fatalf("reconstruction error %d at %d exceeds class width", d, x)
		}
	}
}

func TestPseudoInverseConstantLUT(t *testing.T) {
	var lut LUT // all zero
	inv, err := lut.PseudoInverse()
	if err != nil {
		t.Fatal(err)
	}
	// Every output maps to the mean input 127 or 128.
	if inv[0] < 127 || inv[0] > 128 {
		t.Errorf("constant LUT representative = %d, want ~128", inv[0])
	}
	if inv[255] != inv[0] {
		t.Error("unproduced levels should clamp to the single representative")
	}
}

func TestReconstructionIdempotentProperty(t *testing.T) {
	// Φ∘Φ⁻¹∘Φ == Φ: reconstructing and re-transforming gives the same
	// transformed values.
	f := func(hi uint8) bool {
		if hi < 2 {
			hi = 2
		}
		lut, err := ScaleToRange(0, hi)
		if err != nil {
			return false
		}
		recon, err := lut.Reconstruction()
		if err != nil {
			return false
		}
		again := recon.Compose(lut)
		for x := 0; x < Levels; x++ {
			if again[x] != lut[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBreakpointsAlwaysValidProperty(t *testing.T) {
	// Property: Breakpoints of any monotone LUT is a valid Piecewise input.
	f := func(lo, span uint8) bool {
		hi := int(lo) + int(span)
		if hi > 255 {
			hi = 255
		}
		lut, err := ScaleToRange(lo, uint8(hi))
		if err != nil {
			return false
		}
		pts := lut.Breakpoints()
		_, err = Piecewise(pts)
		return err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyIntoErrors(t *testing.T) {
	lut := identity()
	src := gray.New(64, 64)
	if err := lut.ApplyInto(src, nil); err == nil {
		t.Fatal("nil destination accepted")
	}
	if err := lut.ApplyInto(src, gray.New(64, 63)); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}
