package quality

import (
	"math"
	"testing"

	"hebs/internal/gray"
)

func TestGaussianKernelNormalized(t *testing.T) {
	for _, radius := range []int{1, 3, 5} {
		k := gaussianKernel(radius, 1.5)
		if len(k) != 2*radius+1 {
			t.Fatalf("kernel length %d", len(k))
		}
		sum := 0.0
		for _, v := range k {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("radius %d: kernel sums to %v", radius, sum)
		}
		// Symmetric, peaked at the center.
		for i := 0; i < radius; i++ {
			if math.Abs(k[i]-k[len(k)-1-i]) > 1e-15 {
				t.Errorf("radius %d: kernel asymmetric at %d", radius, i)
			}
		}
		if k[radius] <= k[0] {
			t.Errorf("radius %d: kernel not peaked", radius)
		}
	}
}

func TestConvolveSeparableConstant(t *testing.T) {
	src := make([]float64, 8*6)
	for i := range src {
		src[i] = 42
	}
	out := convolveSeparable(src, 8, 6, gaussianKernel(3, 1.5))
	for i, v := range out {
		if math.Abs(v-42) > 1e-9 {
			t.Fatalf("constant field changed at %d: %v", i, v)
		}
	}
}

func TestSSIMGaussianIdentical(t *testing.T) {
	m := noisy(64, 64, 41)
	s, err := SSIMGaussian(m, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("SSIMGaussian(self) = %v, want 1", s)
	}
}

func TestSSIMGaussianOrdering(t *testing.T) {
	a := noisy(64, 64, 42)
	mild := mapPix(a, func(p uint8) uint8 {
		if p < 250 {
			return p + 5
		}
		return p
	})
	harsh := mapPix(a, func(p uint8) uint8 { return p / 3 })
	sm, err := SSIMGaussian(a, mild)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := SSIMGaussian(a, harsh)
	if err != nil {
		t.Fatal(err)
	}
	if sm <= sh {
		t.Errorf("mild distortion (%v) should score above harsh (%v)", sm, sh)
	}
	for _, s := range []float64{sm, sh} {
		if s < -1 || s > 1 {
			t.Errorf("index out of range: %v", s)
		}
	}
}

func TestSSIMGaussianCloseToUniformOnNaturalContent(t *testing.T) {
	a := noisy(64, 64, 43)
	b := noisy(64, 64, 44)
	g, err := SSIMGaussian(a, b)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ssim(a, b, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-u) > 0.15 {
		t.Errorf("Gaussian (%v) and uniform (%v) SSIM diverge sharply", g, u)
	}
}

func TestSSIMGaussianTinyImage(t *testing.T) {
	a := gray.New(2, 2)
	a.Fill(100)
	s, err := SSIMGaussian(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("tiny SSIMGaussian(self) = %v", s)
	}
}

func TestSSIMGaussianValidation(t *testing.T) {
	if _, err := SSIMGaussian(gray.New(8, 8), gray.New(9, 8)); err == nil {
		t.Error("shape mismatch should error")
	}
	if _, err := SSIMGaussian(nil, gray.New(4, 4)); err == nil {
		t.Error("nil image should error")
	}
}

func TestSSIMGaussianMetric(t *testing.T) {
	m := noisy(32, 32, 45)
	d, err := SSIMGaussianMetric(m, lutRecon(func(p uint8) uint8 { return p }))
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-6 {
		t.Errorf("distortion(self) = %v", d)
	}
}

func BenchmarkSSIMGaussian(b *testing.B) {
	x := noisy(128, 128, 46)
	y := noisy(128, 128, 47)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SSIMGaussian(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
