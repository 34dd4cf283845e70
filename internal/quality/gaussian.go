// Gaussian-windowed SSIM. The reference SSIM implementation weights
// each 11×11 window with a σ=1.5 Gaussian rather than uniformly; the
// weighting suppresses blocking artifacts of the window grid itself.
// The implementation convolves the five moment maps (x, y, x², y², xy)
// with a separable Gaussian kernel, so the cost is O(pixels × kernel)
// rather than O(windows × window area).
package quality

import (
	"math"

	"hebs/internal/gray"
)

// gaussianKernel returns a normalized 1-D Gaussian of the given radius
// and sigma.
func gaussianKernel(radius int, sigma float64) []float64 {
	k := make([]float64, 2*radius+1)
	sum := 0.0
	for i := range k {
		d := float64(i - radius)
		k[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// convolveSeparable filters a float map with the kernel horizontally
// then vertically, clamping at the borders (kernel renormalized over
// the in-bounds support).
func convolveSeparable(src []float64, w, h int, kernel []float64) []float64 {
	radius := len(kernel) / 2
	tmp := make([]float64, len(src))
	out := make([]float64, len(src))
	// Horizontal pass.
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			acc, norm := 0.0, 0.0
			for i, kv := range kernel {
				xx := x + i - radius
				if xx < 0 || xx >= w {
					continue
				}
				acc += kv * src[row+xx]
				norm += kv
			}
			tmp[row+x] = acc / norm
		}
	}
	// Vertical pass.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			acc, norm := 0.0, 0.0
			for i, kv := range kernel {
				yy := y + i - radius
				if yy < 0 || yy >= h {
					continue
				}
				acc += kv * tmp[yy*w+x]
				norm += kv
			}
			out[y*w+x] = acc / norm
		}
	}
	return out
}

// SSIMGaussian computes SSIM with the reference 11×11, σ=1.5 Gaussian
// window (Wang et al. 2004), averaged over every pixel position.
func SSIMGaussian(a, b *gray.Image) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	w, h := a.W, a.H
	if w < 3 || h < 3 {
		// Degenerate: fall back to the uniform-window SSIM, which has a
		// whole-image mode for tiny inputs.
		s, _, err := measure(a, b, Recon{}, UQIOptions{}, ssimTerms)
		return s, err
	}
	radius := 5
	if r := min(w, h)/2 - 1; r < radius {
		radius = r // shrink the kernel for small images
	}
	kernel := gaussianKernel(radius, 1.5)

	n := w * h
	fx := make([]float64, n)
	fy := make([]float64, n)
	fxx := make([]float64, n)
	fyy := make([]float64, n)
	fxy := make([]float64, n)
	for i := 0; i < n; i++ {
		xv := float64(a.Pix[i])
		yv := float64(b.Pix[i])
		fx[i] = xv
		fy[i] = yv
		fxx[i] = xv * xv
		fyy[i] = yv * yv
		fxy[i] = xv * yv
	}
	mx := convolveSeparable(fx, w, h, kernel)
	my := convolveSeparable(fy, w, h, kernel)
	mxx := convolveSeparable(fxx, w, h, kernel)
	myy := convolveSeparable(fyy, w, h, kernel)
	mxy := convolveSeparable(fxy, w, h, kernel)

	total := 0.0
	for i := 0; i < n; i++ {
		vx := mxx[i] - mx[i]*mx[i]
		vy := myy[i] - my[i]*my[i]
		cov := mxy[i] - mx[i]*my[i]
		if vx < 0 {
			vx = 0
		}
		if vy < 0 {
			vy = 0
		}
		num := (2*mx[i]*my[i] + c1) * (2*cov + c2)
		den := (mx[i]*mx[i] + my[i]*my[i] + c1) * (vx + vy + c2)
		total += num / den
	}
	return total / float64(n), nil
}

// SSIMGaussianMetric is (1 − SSIMGaussian(F, g(F))) × 100 for an image
// F and its reconstruction g, the chart.Metric shape. The Gaussian
// filter reads g(F) at every tap, so it is materialized once.
func SSIMGaussianMetric(a *gray.Image, g Recon) (float64, error) {
	return materializedMetric(a, g, SSIMGaussian)
}
