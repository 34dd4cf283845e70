// Multi-scale structural similarity. The paper's future work asks for
// alternative distortion measures; MS-SSIM (Wang, Simoncelli & Bovik
// 2003) is the standard refinement of SSIM: contrast and structure are
// compared at a pyramid of scales — so banding that is invisible at
// full resolution but visible when the image is viewed smaller (or
// vice versa) is weighted appropriately — with luminance compared only
// at the coarsest scale.
package quality

import (
	"math"

	"hebs/internal/gray"
)

// msssimWeights are the published exponents for the five dyadic scales.
var msssimWeights = []float64{0.0448, 0.2856, 0.3001, 0.2363, 0.1333}

// MSSSIM returns the multi-scale structural similarity index over up
// to five dyadic scales (fewer if the images are too small to halve;
// the weights are renormalized over the scales actually used). The
// result lies in (-1, 1] with 1 for identical images.
func MSSSIM(a, b *gray.Image, opts UQIOptions) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	ca, cb := a, b
	type scaleResult struct{ lum, cs float64 }
	var scales []scaleResult
	for s := 0; s < len(msssimWeights); s++ {
		lum, cs, err := measure(ca, cb, Recon{}, opts, ssimParts)
		if err != nil {
			return 0, err
		}
		scales = append(scales, scaleResult{lum: lum, cs: cs})
		// Halve for the next scale; stop when a further halving would
		// drop below a usable window.
		nw, nh := ca.W/2, ca.H/2
		if s == len(msssimWeights)-1 || nw < 2 || nh < 2 {
			break
		}
		var errA, errB error
		ca, errA = ca.ResizeBox(nw, nh)
		cb, errB = cb.ResizeBox(nw, nh)
		if errA != nil {
			return 0, errA
		}
		if errB != nil {
			return 0, errB
		}
	}
	// Renormalize the weights over the realized scales.
	totalW := 0.0
	for i := range scales {
		totalW += msssimWeights[i]
	}
	result := 1.0
	for i, sc := range scales {
		w := msssimWeights[i] / totalW
		v := sc.cs
		if i == len(scales)-1 {
			v *= sc.lum // luminance only at the coarsest scale
		}
		// The cs term can be slightly negative for anti-correlated
		// windows; clamp to a tiny positive value so the weighted
		// geometric mean stays defined, mirroring the reference
		// implementation's behaviour on pathological inputs.
		if v < 1e-6 {
			v = 1e-6
		}
		result *= math.Pow(v, w)
	}
	return result, nil
}

// MSSSIMMetric is (1 − MSSSIM(F, g(F))) × 100 for an image F and its
// reconstruction g, the chart.Metric shape. The coarser scales resample
// g(F), so it is materialized once.
func MSSSIMMetric(a *gray.Image, g Recon) (float64, error) {
	return materializedMetric(a, g, func(a, b *gray.Image) (float64, error) { return MSSSIM(a, b, UQIOptions{}) })
}
