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

// ssimComponents returns the mean luminance term and the mean
// contrast·structure term over sliding windows — the factorization
// MS-SSIM combines across scales.
func ssimComponents(a, b *gray.Image, opts UQIOptions) (lum, cs float64, err error) {
	opts, err = opts.normalized(a, b)
	if err != nil {
		return 0, 0, err
	}
	lum, cs = walk(a, b, opts.Window, opts.Step, ssimParts)
	return lum, cs, nil
}

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
		lum, cs, err := ssimComponents(ca, cb, opts)
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

// MSSSIMMetric adapts MSSSIM to the chart.Metric shape: distortion
// percent (1 − index) × 100.
func MSSSIMMetric(a, b *gray.Image) (float64, error) {
	v, err := MSSSIM(a, b, UQIOptions{})
	if err != nil {
		return 0, err
	}
	return DistortionPercent(v), nil
}
