package equalize

import (
	"image"
	"math"
	"testing"
	"testing/quick"

	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/rng"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

func ramp() *gray.Image {
	m := gray.New(256, 1)
	for x := 0; x < 256; x++ {
		m.Set(x, 0, uint8(x))
	}
	return m
}

func noisy(seed uint64) *gray.Image {
	m := gray.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			m.Set(x, y, uint8(255*rng.FBM(float64(x)/19, float64(y)/19, 4, seed)))
		}
	}
	return m
}

func TestSolveUniformInputIsAffine(t *testing.T) {
	// Equalizing an already-uniform histogram to [0,100] is the linear
	// compression x -> x*100/255 (up to quantization).
	h := histogram.Of(ramp())
	res, err := SolveRange(h, 100)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 256; v += 15 {
		want := float64(v) * 100.0 / 255.0
		if math.Abs(res.Exact[v]-want) > 1.0 {
			t.Errorf("Exact[%d] = %v, want ~%v", v, res.Exact[v], want)
		}
	}
}

func TestSolveAttainsTargetRange(t *testing.T) {
	for _, r := range []int{30, 100, 220, 255} {
		h := histogram.Of(noisy(uint64(r)))
		res, err := SolveRange(h, r)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := res.LUT.Range()
		// The populated extremes must map to 0 and R; unpopulated input
		// levels below the min also map to 0 so the LUT range is exact.
		if lo != 0 {
			t.Errorf("R=%d: lo = %d, want 0", r, lo)
		}
		if int(hi) != r {
			t.Errorf("R=%d: hi = %d, want %d", r, hi, r)
		}
	}
}

func TestSolveMonotone(t *testing.T) {
	h := histogram.Of(noisy(7))
	res, err := SolveRange(h, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LUT.IsMonotone() {
		t.Error("GHE LUT must be monotone")
	}
	for v := 1; v < 256; v++ {
		if res.Exact[v] < res.Exact[v-1] {
			t.Fatalf("Exact curve decreases at %d", v)
		}
	}
}

func TestSolveFlattensHistogram(t *testing.T) {
	// A heavily skewed image must end up much flatter after GHE.
	m := gray.New(64, 64)
	s := rng.New(3)
	for i := range m.Pix {
		// Squared uniform: mass concentrated at dark levels.
		v := s.Float64()
		m.Pix[i] = uint8(255 * v * v)
	}
	h := histogram.Of(m)
	// Distance of the CDF to the cumulative-uniform target on [0,200],
	// before and after. Per-bin flatness is the wrong lens here because
	// discrete equalization leaves spiky bins with gaps; the paper's
	// Eq. 4 objective is the cumulative L1 distance.
	u, err := histogram.Uniform(h.N, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	toFloat := func(hh *histogram.Histogram) [histogram.Levels]float64 {
		var out [histogram.Levels]float64
		for v, c := range hh.CDF() {
			out[v] = float64(c)
		}
		return out
	}
	before := histogram.L1CDFDistance(toFloat(h), u, h.N)
	res, err := SolveRange(h, 200)
	if err != nil {
		t.Fatal(err)
	}
	out := res.LUT.Apply(m)
	after := histogram.L1CDFDistance(toFloat(histogram.Of(out)), u, h.N)
	if after >= before/2 {
		t.Errorf("CDF residual did not clearly improve: before %v, after %v", before, after)
	}
}

func TestSolveCustomLimits(t *testing.T) {
	h := histogram.Of(noisy(9))
	res, err := Solve(h, 40, 140)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.LUT.Range()
	if lo != 40 || hi != 140 {
		t.Errorf("range = [%d,%d], want [40,140]", lo, hi)
	}
	if res.GMin != 40 || res.GMax != 140 {
		t.Errorf("GMin/GMax = %d/%d", res.GMin, res.GMax)
	}
}

func TestSolveErrors(t *testing.T) {
	h := histogram.Of(ramp())
	if _, err := Solve(nil, 0, 100); err == nil {
		t.Error("nil histogram should error")
	}
	if _, err := Solve(h, -1, 100); err == nil {
		t.Error("gmin<0 should error")
	}
	if _, err := Solve(h, 0, 256); err == nil {
		t.Error("gmax>255 should error")
	}
	if _, err := Solve(h, 100, 100); err == nil {
		t.Error("gmin==gmax should error")
	}
	if _, err := SolveRange(h, 0); err == nil {
		t.Error("R=0 should error")
	}
	if _, err := SolveRange(h, 256); err == nil {
		t.Error("R=256 should error")
	}
}

func TestSolveSingleLevelImage(t *testing.T) {
	m := gray.New(8, 8)
	m.Fill(77)
	res, err := SolveRange(histogram.Of(m), 100)
	if err != nil {
		t.Fatal(err)
	}
	// Everything maps to gmin for a single-level image.
	if res.LUT[77] != 0 {
		t.Errorf("single level maps to %d, want 0", res.LUT[77])
	}
	if !res.LUT.IsMonotone() {
		t.Error("degenerate LUT must stay monotone")
	}
}

func TestSolveTwoLevelImage(t *testing.T) {
	m := gray.New(8, 8)
	for i := range m.Pix {
		if i%2 == 0 {
			m.Pix[i] = 10
		} else {
			m.Pix[i] = 240
		}
	}
	res, err := SolveRange(histogram.Of(m), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.LUT[10] != 0 {
		t.Errorf("low level -> %d, want 0", res.LUT[10])
	}
	if res.LUT[240] != 100 {
		t.Errorf("high level -> %d, want 100", res.LUT[240])
	}
}

func TestPointsShape(t *testing.T) {
	res, err := SolveRange(histogram.Of(noisy(5)), 128)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points()
	if len(pts) != transform.Levels {
		t.Fatalf("points = %d, want 256", len(pts))
	}
	if pts[0].X != 0 || pts[255].X != 255 {
		t.Error("points must span the input domain")
	}
	for i, p := range pts {
		if p.Y != res.Exact[i] {
			t.Fatalf("point %d Y mismatch", i)
		}
	}
}

func TestSolvePropertyMonotoneAndInRange(t *testing.T) {
	f := func(pix []byte, rRaw uint8) bool {
		if len(pix) == 0 {
			return true
		}
		r := int(rRaw)
		if r < 1 {
			r = 1
		}
		m := &gray.Image{W: len(pix), H: 1, Pix: pix}
		res, err := SolveRange(histogram.Of(m), r)
		if err != nil {
			return false
		}
		if !res.LUT.IsMonotone() {
			return false
		}
		_, hi := res.LUT.Range()
		return int(hi) <= r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualizedImageDynamicRangeProperty(t *testing.T) {
	// After GHE to range R, any image with >= 2 levels has transformed
	// dynamic range exactly R.
	f := func(seed uint64, rRaw uint8) bool {
		r := int(rRaw)%200 + 30
		m := noisy(seed)
		res, err := SolveRange(histogram.Of(m), r)
		if err != nil {
			return false
		}
		out := res.LUT.Apply(m)
		h := histogram.Of(out)
		return h.DynamicRange() == r
	}
	cfg := &quick.Config{MaxCount: 20} // noisy() is relatively expensive
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestLUTIsAllPointsCover: the quantized LUT equals the piecewise-
// linear LUT through every point of the exact curve — the all-points
// cover, the Eq. 9 DP's only feasible answer at m = G−1 — on the GHE
// curves of the 19 sipi images at 128² and of 16 random 32² crops of
// each, at every range R = 2…255. This is what lets a zone of a
// multi-zone backend apply Φ's own LUT with no PLC solve and still get
// the Λ the DP would return.
func TestLUTIsAllPointsCover(t *testing.T) {
	suite, err := sipi.Suite(sipi.DefaultSize, sipi.DefaultSize)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(31)
	var hists []*histogram.Histogram
	for _, ni := range suite {
		hists = append(hists, histogram.Of(ni.Image))
		for c := 0; c < 16; c++ {
			x, y := src.Intn(ni.Image.W-32+1), src.Intn(ni.Image.H-32+1)
			crop, err := ni.Image.SubImage(image.Rect(x, y, x+32, y+32))
			if err != nil {
				t.Fatal(err)
			}
			hists = append(hists, histogram.Of(crop))
		}
	}
	curves := 0
	for i, h := range hists {
		for r := 2; r < transform.Levels; r++ {
			res, err := SolveRange(h, r)
			if err != nil {
				t.Fatal(err)
			}
			cover, err := transform.Piecewise(res.Points())
			if err != nil {
				t.Fatal(err)
			}
			if *cover != *res.LUT {
				t.Fatalf("histogram %d at R=%d: quantized LUT differs from the all-points cover", i, r)
			}
			curves++
		}
	}
	t.Logf("%d curves", curves)
}
