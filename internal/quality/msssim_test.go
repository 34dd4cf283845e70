package quality

import (
	"math"
	"testing"

	"hebs/internal/gray"
	"hebs/internal/rng"
)

func TestMSSSIMIdentical(t *testing.T) {
	m := noisy(96, 96, 31)
	v, err := MSSSIM(m, m, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-6 {
		t.Errorf("MSSSIM(self) = %v, want 1", v)
	}
}

func TestMSSSIMRangeAndOrdering(t *testing.T) {
	a := noisy(96, 96, 32)
	// Small perturbation vs heavy perturbation.
	small := a.Clone()
	heavy := a.Clone()
	s := rng.New(9)
	for i := range small.Pix {
		d1 := s.Intn(7) - 3
		d2 := s.Intn(81) - 40
		v1 := int(small.Pix[i]) + d1
		v2 := int(heavy.Pix[i]) + d2
		if v1 < 0 {
			v1 = 0
		}
		if v1 > 255 {
			v1 = 255
		}
		if v2 < 0 {
			v2 = 0
		}
		if v2 > 255 {
			v2 = 255
		}
		small.Pix[i] = uint8(v1)
		heavy.Pix[i] = uint8(v2)
	}
	vs, err := MSSSIM(a, small, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vh, err := MSSSIM(a, heavy, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vs <= vh {
		t.Errorf("MSSSIM ordering broken: small %v <= heavy %v", vs, vh)
	}
	for _, v := range []float64{vs, vh} {
		if v <= -1 || v > 1 {
			t.Errorf("MSSSIM out of range: %v", v)
		}
	}
}

func TestMSSSIMSmallImageFallback(t *testing.T) {
	// A 12x12 image can only halve once or twice; must not error.
	a := noisy(12, 12, 33)
	b := noisy(12, 12, 34)
	v, err := MSSSIM(a, b, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v <= -1 || v > 1 {
		t.Errorf("small-image MSSSIM = %v", v)
	}
	self, err := MSSSIM(a, a, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(self-1) > 1e-6 {
		t.Errorf("small-image MSSSIM(self) = %v", self)
	}
}

func TestMSSSIMShapeMismatch(t *testing.T) {
	if _, err := MSSSIM(gray.New(16, 16), gray.New(17, 16), UQIOptions{}); err == nil {
		t.Error("shape mismatch should error")
	}
	if _, err := MSSSIM(nil, gray.New(4, 4), UQIOptions{}); err == nil {
		t.Error("nil image should error")
	}
}

func TestMSSSIMMetricScale(t *testing.T) {
	m := noisy(64, 64, 35)
	d, err := MSSSIMMetric(m, lutRecon(func(p uint8) uint8 { return p }))
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-3 {
		t.Errorf("MSSSIM distortion(self) = %v, want ~0", d)
	}
	d, err = MSSSIMMetric(m, lutRecon(func(p uint8) uint8 { return 255 - p }))
	if err != nil {
		t.Fatal(err)
	}
	if d <= 10 {
		t.Errorf("MSSSIM distortion of inversion = %v, want large", d)
	}
}

func TestMSSSIMSensitiveToCoarseScaleBanding(t *testing.T) {
	// Quantize a smooth gradient: banding survives downsampling, so
	// MS-SSIM should register distortion, and more banding = more
	// distortion.
	g := gray.New(128, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			g.Set(x, y, uint8(64+x/2+y/4))
		}
	}
	coarse := lutRecon(func(p uint8) uint8 { return (p / 24) * 24 })
	fine := lutRecon(func(p uint8) uint8 { return (p / 6) * 6 })
	dc, err := MSSSIMMetric(g, coarse)
	if err != nil {
		t.Fatal(err)
	}
	df, err := MSSSIMMetric(g, fine)
	if err != nil {
		t.Fatal(err)
	}
	if dc <= df {
		t.Errorf("coarser banding should distort more: %v <= %v", dc, df)
	}
}

func TestSSIMComponentsConsistentWithSSIM(t *testing.T) {
	// At a single window spanning the whole image, l·cs equals SSIM.
	a := noisy(8, 8, 36)
	b := noisy(8, 8, 37)
	opts := UQIOptions{Window: 8, Step: 8}
	l, cs, err := measure(a, b, Recon{}, opts, ssimParts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ssim(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l*cs-s) > 1e-9 {
		t.Errorf("l*cs = %v, SSIM = %v", l*cs, s)
	}
}
