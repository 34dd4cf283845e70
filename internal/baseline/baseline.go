// Package baseline implements the two prior backlight-scaling
// techniques HEBS is evaluated against:
//
//   - DLS, "Dynamic Backlight Luminance Scaling" (Chang, Choi & Shim,
//     ref. [4]): dim the backlight by β and compensate pixel values
//     either by a brightness shift Φ(x,β) = min(1, x+1−β) (Eq. 2a) or
//     by contrast enhancement Φ(x,β) = min(1, x/β) (Eq. 2b). Pixels
//     above β saturate — the histogram is truncated at one end.
//   - CBCS, "Concurrent Brightness and Contrast Scaling" (Cheng &
//     Pedram, ref. [5]): truncate the histogram at both ends, spreading
//     a single band [g_l, g_u] over the full swing (Eq. 3), enabling a
//     deeper dimming β = (g_u − g_l)/255 at the cost of both tails.
//
// Each policy searches its parameter for the maximum dimming whose
// distortion stays within the user budget, using the same distortion
// measure as HEBS so the comparison is apples-to-apples. The paper's
// claim — reproduced by the comparison benchmark — is that HEBS saves
// ~15% more power at matched distortion because equalization discards
// sparsely-populated levels anywhere in the histogram rather than only
// saturating its tails.
package baseline

import (
	"errors"
	"fmt"

	"hebs/internal/chart"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/power"
	"hebs/internal/transform"
)

// Result is a solved baseline policy.
type Result struct {
	// Method identifies the technique ("dls-brightness", "dls-contrast",
	// "cbcs").
	Method string
	// LUT is the chosen pixel transformation (full-swing compensated).
	LUT *transform.LUT
	// Beta is the backlight scaling factor.
	Beta float64
	// Band is the preserved input band [Lo, Hi] in 8-bit codes.
	Band struct{ Lo, Hi int }
	// Distortion is the measured distortion of the chosen transform.
	Distortion float64
	// PowerSavingPercent is the subsystem power saving vs. full
	// backlight with the original image.
	PowerSavingPercent float64
}

func validateBudget(img *gray.Image, maxDistortion float64) error {
	if img == nil {
		return errors.New("baseline: nil image")
	}
	if maxDistortion < 0 {
		return fmt.Errorf("baseline: negative distortion budget %v", maxDistortion)
	}
	return nil
}

// finish fills the measured fields of a result.
func finish(res *Result, img *gray.Image, metric chart.Metric, sub power.Subsystem) error {
	d, err := chart.TransformDistortion(img, res.LUT, metric)
	if err != nil {
		return err
	}
	res.Distortion = d
	transformed := res.LUT.Apply(img)
	s, err := sub.SavingPercent(img, transformed, res.Beta)
	if err != nil {
		return err
	}
	res.PowerSavingPercent = s
	return nil
}

// dlsLUT builds the compensated DLS transform for a β expressed as an
// integer code k (β = k/255).
func dlsLUT(k int, brightness bool) (*transform.LUT, error) {
	beta := float64(k) / float64(transform.Levels-1)
	if brightness {
		return transform.BrightnessShift(beta)
	}
	return transform.ContrastScale(beta)
}

// crossing bisects the integer parameter k over [1, 255] (β = k/255)
// for deep dimming within the budget, measuring the transform
// lutFor(k). D(k) is not monotone, so the result is a local crossing,
// not necessarily the smallest passing k: D(k) ≤ maxDistortion, and
// k = 1 or D(k−1) > maxDistortion (255 when no probe passes). Which
// crossing it finds depends on the probe path.
func crossing(img *gray.Image, maxDistortion float64, metric chart.Metric, lutFor func(k int) (*transform.LUT, error)) (int, error) {
	lo, hi := 1, transform.Levels-1
	for lo < hi {
		mid := (lo + hi) / 2
		lut, err := lutFor(mid)
		if err != nil {
			return 0, err
		}
		d, err := chart.TransformDistortion(img, lut, metric)
		if err != nil {
			return 0, err
		}
		if d <= maxDistortion {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// dls runs the shared DLS policy: the β code the crossing search
// returns for the compensated transform.
func dls(img *gray.Image, maxDistortion float64, brightness bool, metric chart.Metric, sub power.Subsystem) (*Result, error) {
	if err := validateBudget(img, maxDistortion); err != nil {
		return nil, err
	}
	lo, err := crossing(img, maxDistortion, metric, func(k int) (*transform.LUT, error) { return dlsLUT(k, brightness) })
	if err != nil {
		return nil, err
	}
	lut, err := dlsLUT(lo, brightness)
	if err != nil {
		return nil, err
	}
	method := "dls-contrast"
	if brightness {
		method = "dls-brightness"
	}
	res := &Result{Method: method, LUT: lut, Beta: float64(lo) / float64(transform.Levels-1)}
	res.Band.Lo = 0
	res.Band.Hi = lo
	if err := finish(res, img, metric, sub); err != nil {
		return nil, err
	}
	return res, nil
}

// DLSBrightness solves the DLS backlight-dimming policy with brightness
// compensation (Eq. 2a) for the given distortion budget.
func DLSBrightness(img *gray.Image, maxDistortion float64, metric chart.Metric, sub power.Subsystem) (*Result, error) {
	return dls(img, maxDistortion, true, metric, sub)
}

// DLSContrast solves the DLS policy with contrast enhancement (Eq. 2b).
func DLSContrast(img *gray.Image, maxDistortion float64, metric chart.Metric, sub power.Subsystem) (*Result, error) {
	return dls(img, maxDistortion, false, metric, sub)
}

// bestBand returns the offset g_l maximizing the pixel mass inside a
// band of the given width — CBCS's contrast-fidelity criterion (the
// preserved pixels are exactly the in-band ones).
func bestBand(h *histogram.Histogram, width int) (lo int) {
	cdf := h.CDF()
	massUpTo := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > transform.Levels-1 {
			v = transform.Levels - 1
		}
		return cdf[v]
	}
	best, bestMass := 0, -1
	for gl := 0; gl+width <= transform.Levels-1; gl++ {
		mass := massUpTo(gl+width) - massUpTo(gl-1)
		if mass > bestMass {
			best, bestMass = gl, mass
		}
	}
	return best
}

// cbcsLUT builds the single-band transform for a band of the given
// width positioned by bestBand.
func cbcsLUT(h *histogram.Histogram, width int) (*transform.LUT, int, error) {
	gl := bestBand(h, width)
	gu := gl + width
	lut, err := transform.SingleBand(float64(gl)/(transform.Levels-1), float64(gu)/(transform.Levels-1))
	if err != nil {
		return nil, 0, err
	}
	return lut, gl, nil
}

// CBCS solves the concurrent brightness/contrast scaling policy: the
// band width (β = width/255) the crossing search returns for the spread
// transform, with the band placed over the histogram's densest stretch.
func CBCS(img *gray.Image, maxDistortion float64, metric chart.Metric, sub power.Subsystem) (*Result, error) {
	if err := validateBudget(img, maxDistortion); err != nil {
		return nil, err
	}
	h := histogram.Of(img)
	lo, err := crossing(img, maxDistortion, metric, func(k int) (*transform.LUT, error) {
		lut, _, err := cbcsLUT(h, k)
		return lut, err
	})
	if err != nil {
		return nil, err
	}
	lut, gl, err := cbcsLUT(h, lo)
	if err != nil {
		return nil, err
	}
	res := &Result{Method: "cbcs", LUT: lut, Beta: float64(lo) / float64(transform.Levels-1)}
	res.Band.Lo = gl
	res.Band.Hi = gl + lo
	if err := finish(res, img, metric, sub); err != nil {
		return nil, err
	}
	return res, nil
}

// CBCSNative is CBCS's native policy from ref. [5]: maximize the
// number of preserved (in-band) pixels, i.e. pick the narrowest band
// whose *clipped-pixel percentage* stays within budget — no perceptual
// model. Pure histogram arithmetic, no image-domain measurement.
// Section 2 of the HEBS paper argues this measure overestimates
// distortion (every clipped pixel counts equally no matter how
// visible), which the native-vs-perceptual comparison quantifies.
func CBCSNative(img *gray.Image, maxClippedPercent float64, sub power.Subsystem) (*Result, error) {
	if err := validateBudget(img, maxClippedPercent); err != nil {
		return nil, err
	}
	h := histogram.Of(img)
	budget := maxClippedPercent / 100 * float64(h.N)
	cdf := h.CDF()
	massIn := func(gl, width int) int {
		hi := gl + width
		if hi > transform.Levels-1 {
			hi = transform.Levels - 1
		}
		lo := 0
		if gl > 0 {
			lo = cdf[gl-1]
		}
		return cdf[hi] - lo
	}
	// Smallest width whose best placement clips within budget: the
	// maximal in-band mass is non-decreasing in width, so bisect.
	lo, hi := 1, transform.Levels-1
	for lo < hi {
		mid := (lo + hi) / 2
		best := 0
		for gl := 0; gl+mid <= transform.Levels-1; gl++ {
			if m := massIn(gl, mid); m > best {
				best = m
			}
		}
		if float64(h.N-best) <= budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	lut, gl, err := cbcsLUT(h, lo)
	if err != nil {
		return nil, err
	}
	res := &Result{Method: "cbcs-native", LUT: lut, Beta: float64(lo) / float64(transform.Levels-1)}
	res.Band.Lo = gl
	res.Band.Hi = gl + lo
	if err := finish(res, img, nil, sub); err != nil {
		return nil, err
	}
	return res, nil
}

// SaturatedPixelPolicy is DLS's native policy from ref. [4]: pick the
// smallest β such that at most maxSaturatedPercent of the pixels
// saturate (exceed the preserved range) — no perceptual model at all.
// Provided for the ablation comparing distortion measures.
func SaturatedPixelPolicy(img *gray.Image, maxSaturatedPercent float64, sub power.Subsystem) (*Result, error) {
	if err := validateBudget(img, maxSaturatedPercent); err != nil {
		return nil, err
	}
	h := histogram.Of(img)
	cdf := h.CDF()
	n := float64(h.N)
	// Pixels with code > k saturate under contrast enhancement at
	// β = k/255; find the smallest k keeping saturation within budget.
	k := transform.Levels - 1
	for cand := 1; cand < transform.Levels; cand++ {
		saturated := 100 * (n - float64(cdf[cand])) / n
		if saturated <= maxSaturatedPercent {
			k = cand
			break
		}
	}
	lut, err := dlsLUT(k, false)
	if err != nil {
		return nil, err
	}
	res := &Result{Method: "dls-saturation", LUT: lut, Beta: float64(k) / float64(transform.Levels-1)}
	res.Band.Lo = 0
	res.Band.Hi = k
	if err := finish(res, img, nil, sub); err != nil {
		return nil, err
	}
	return res, nil
}
