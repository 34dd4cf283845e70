package histogram

import (
	"math"
	"testing"

	"hebs/internal/gray"
	"hebs/internal/sipi"
)

func ramp() *gray.Image {
	m := gray.New(256, 1)
	for x := 0; x < 256; x++ {
		m.Set(x, 0, uint8(x))
	}
	return m
}

func TestOfCountsEveryPixel(t *testing.T) {
	m := gray.New(3, 2)
	m.Pix = []uint8{0, 0, 5, 5, 5, 255}
	h := Of(m)
	if h.N != 6 {
		t.Errorf("N = %d, want 6", h.N)
	}
	if h.Bins[0] != 2 || h.Bins[5] != 3 || h.Bins[255] != 1 {
		t.Errorf("bins wrong: %v %v %v", h.Bins[0], h.Bins[5], h.Bins[255])
	}
}

func TestFromBins(t *testing.T) {
	var bins [Levels]int
	bins[10] = 4
	h, err := FromBins(bins)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 4 {
		t.Errorf("N = %d, want 4", h.N)
	}
	bins[11] = -1
	if _, err := FromBins(bins); err == nil {
		t.Error("negative bin should error")
	}
	var empty [Levels]int
	if _, err := FromBins(empty); err == nil {
		t.Error("empty histogram should error")
	}
}

func TestCDFMonotoneAndTotal(t *testing.T) {
	h := Of(ramp())
	cdf := h.CDF()
	prev := 0
	for v := 0; v < Levels; v++ {
		if cdf[v] < prev {
			t.Fatalf("CDF decreases at %d", v)
		}
		prev = cdf[v]
	}
	if cdf[Levels-1] != h.N {
		t.Errorf("CDF[255] = %d, want N=%d", cdf[Levels-1], h.N)
	}
}

func TestMinMaxDynamicRange(t *testing.T) {
	m := gray.New(2, 2)
	m.Pix = []uint8{30, 40, 50, 200}
	h := Of(m)
	if h.MinLevel() != 30 || h.MaxLevel() != 200 || h.DynamicRange() != 170 {
		t.Errorf("min/max/range = %d/%d/%d", h.MinLevel(), h.MaxLevel(), h.DynamicRange())
	}
}

func TestPercentile(t *testing.T) {
	h := Of(ramp())
	p50, err := h.Percentile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 127 {
		t.Errorf("p50 = %d, want 127", p50)
	}
	p0, _ := h.Percentile(0)
	p1, _ := h.Percentile(1)
	if p0 != 0 || p1 != 255 {
		t.Errorf("p0/p1 = %d/%d", p0, p1)
	}
	if _, err := h.Percentile(1.5); err == nil {
		t.Error("percentile > 1 should error")
	}
}

func TestUniform(t *testing.T) {
	u, err := Uniform(1000, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	if u[49] != 0 || u[50] != 0 {
		t.Errorf("U below gmin should be 0, got %v,%v", u[49], u[50])
	}
	if u[150] != 1000 || u[200] != 1000 {
		t.Errorf("U at/above gmax should be N, got %v,%v", u[150], u[200])
	}
	if math.Abs(u[100]-500) > 1e-9 {
		t.Errorf("U midpoint = %v, want 500", u[100])
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(0, 0, 10); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := Uniform(10, -1, 10); err == nil {
		t.Error("gmin<0 should error")
	}
	if _, err := Uniform(10, 0, 256); err == nil {
		t.Error("gmax>255 should error")
	}
	if _, err := Uniform(10, 10, 10); err == nil {
		t.Error("gmin==gmax should error")
	}
}

func TestL1CDFDistance(t *testing.T) {
	a, _ := Uniform(100, 0, 255)
	b, _ := Uniform(100, 0, 255)
	if d := L1CDFDistance(a, b, 100); d != 0 {
		t.Errorf("identical CDFs distance = %v, want 0", d)
	}
	c, _ := Uniform(100, 100, 200)
	if d := L1CDFDistance(a, c, 100); d <= 0 {
		t.Errorf("different CDFs distance = %v, want > 0", d)
	}
	if d := L1CDFDistance(a, c, 0); d != 0 {
		t.Errorf("n=0 distance = %v, want 0", d)
	}
}

// TestFingerprintPinned pins Fingerprint to the FNV-1a fold the flight
// record's HistHash has always carried (bins, then N, each as 8
// little-endian bytes), so recorded scene hashes stay comparable
// across versions.
func TestFingerprintPinned(t *testing.T) {
	lena, err := sipi.Generate("lena", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	var synth Histogram
	for i := range synth.Bins {
		synth.Bins[i] = (i*31 + 97) % 251
		synth.N += synth.Bins[i]
	}
	for _, tc := range []struct {
		name string
		h    *Histogram
		want uint64
	}{
		{"empty", &Histogram{}, 0x870f7c2ceafad9c5},
		{"synthetic", &synth, 0xa0c8de525945a172},
		{"lena64", Of(lena), 0xeb18c1df46dfa3f9},
	} {
		if got := tc.h.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
