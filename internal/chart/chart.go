// Package chart builds the distortion characteristic curve of Section
// 3 / Figure 7 of the paper: for every benchmark image, the transformed
// image's distortion is measured at a sweep of target dynamic ranges;
// regression over the resulting point cloud yields an "entire dataset"
// (average) fit and a "worst-case" fit. Step 1 of HEBS inverts this
// curve to turn a user's maximum tolerable distortion D_max into the
// minimum admissible dynamic range R (and hence the backlight factor
// β = R/255).
package chart

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"hebs/internal/equalize"
	"hebs/internal/fit"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/parallel"
	"hebs/internal/power"
	"hebs/internal/quality"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// Metric measures the distortion (in percent) between the original
// image F and what the viewer perceives of the transformed one, the
// reconstruction g(F) (see TransformDistortion). recon holds g as
// lookup tables: one LUT for a global transform, or one per zone of a
// local-dimming frame. A nil Metric means quality.UQIMetric, the
// paper's measure; quality also has the future-work alternatives.
type Metric func(orig *gray.Image, recon quality.Recon) (float64, error)

// Sample is one (image, target range) measurement.
type Sample struct {
	Name       string
	Range      int
	Distortion float64
	Saving     float64 // power-saving percent at β = Range/255
}

// Curve is a fitted distortion characteristic curve.
type Curve struct {
	// Samples is the full point cloud of Figure 7.
	Samples []Sample
	// Ranges are the swept target dynamic ranges, ascending.
	Ranges []int
	// Avg interpolates the per-range mean distortion ("entire dataset
	// fit") and Worst the per-range maximum ("worst-case fit").
	Avg, Worst *fit.Linear
	// AvgPoly and WorstPoly are quadratic regression fits over the
	// cloud, reported for comparison with the paper's MATLAB fits.
	AvgPoly, WorstPoly fit.Poly
}

// DefaultRanges returns the ten target dynamic ranges of Figure 7,
// evenly spaced over [50, 250].
func DefaultRanges() []int {
	out := make([]int, 10)
	for i := range out {
		out[i] = 50 + i*200/9
	}
	out[len(out)-1] = 250
	return out
}

// TransformDistortion measures the distortion a monotone pixel
// transform inflicts on img: the original is compared against its
// reconstruction Φ⁻¹(Φ(F)). The invertible part of the monotone tone
// remap is exactly what the backlight-scaling contrast compensation
// (and the viewer's brightness/contrast adaptation) undoes, so only the
// irreversible merging of grayscale levels registers as distortion.
func TransformDistortion(img *gray.Image, lut *transform.LUT, metric Metric) (float64, error) {
	recon, err := lut.Reconstruction()
	if err != nil {
		return 0, err
	}
	return Distortion(img, quality.Recon{LUT: recon}, metric)
}

// Distortion is metric's distortion of orig against its reconstruction
// recon; a nil metric is quality.UQIMetric, the paper's measure.
func Distortion(orig *gray.Image, recon quality.Recon, metric Metric) (float64, error) {
	if metric == nil {
		metric = quality.UQIMetric
	}
	return metric(orig, recon)
}

// MergedPixelPercent returns the percentage of pixels whose value is
// not recovered by the transform's reconstruction — i.e. pixels whose
// grayscale level was merged with a neighbour. This is the "number of
// discarded pixels" criterion of Section 3, the quantity global
// histogram equalization provably minimizes for a given target range
// (it merges the least-populated levels first).
func MergedPixelPercent(img *gray.Image, lut *transform.LUT) (float64, error) {
	if img == nil {
		return 0, errors.New("chart: nil image")
	}
	recon, err := lut.Reconstruction()
	if err != nil {
		return 0, err
	}
	merged := 0
	for _, p := range img.Pix {
		if recon[p] != p {
			merged++
		}
	}
	return 100 * float64(merged) / float64(len(img.Pix)), nil
}

// rangeRecons holds the reconstruction of linear compression to each
// range r, built once: every exact range search reads ~8 of them.
var rangeRecons = sync.OnceValues(func() (*[transform.Levels]*transform.LUT, error) {
	var t [transform.Levels]*transform.LUT
	for r := range t {
		lut, err := transform.ScaleToRange(0, uint8(r))
		if err != nil {
			return nil, err
		}
		if t[r], err = lut.Reconstruction(); err != nil {
			return nil, err
		}
	}
	return &t, nil
})

// RangeReductionDistortion measures the distortion of plainly setting
// the image's dynamic range to r (linear compression, Section 5.1c's
// "we set the dynamic range of a benchmark image to some target
// value") — one cell of the Figure 7 sweep.
func RangeReductionDistortion(img *gray.Image, r int, metric Metric) (float64, error) {
	if r < 0 || r >= transform.Levels {
		return 0, fmt.Errorf("chart: target range %d outside [0,255]", r)
	}
	recons, err := rangeRecons()
	if err != nil {
		return 0, err
	}
	return Distortion(img, quality.Recon{LUT: recons[r]}, metric)
}

// DistortionAtRange computes one characterization sample: the linear
// range-reduction distortion at dynamic range r, plus the power saving
// of displaying the HEBS-equalized image at backlight factor β = r/255.
func DistortionAtRange(img *gray.Image, r int, metric Metric, sub power.Subsystem) (distortion, saving float64, err error) {
	distortion, err = RangeReductionDistortion(img, r, metric)
	if err != nil {
		return 0, 0, err
	}
	beta, err := power.BetaForRange(r, transform.Levels)
	if err != nil {
		return 0, 0, err
	}
	h := histogram.Of(img)
	ghe, err := equalize.SolveRange(h, r)
	if err != nil {
		return 0, 0, err
	}
	transformed := ghe.LUT.Apply(img)
	saving, err = sub.SavingPercent(img, transformed, beta)
	if err != nil {
		return 0, 0, err
	}
	return distortion, saving, nil
}

// Options configures curve construction.
type Options struct {
	// Ranges to sweep; default DefaultRanges().
	Ranges []int
	// Metric for distortion; default UQIMetric.
	Metric Metric
	// Subsystem power model; zero value means power.DefaultSubsystem.
	Subsystem *power.Subsystem
}

// Build sweeps the benchmark suite over the target ranges and fits the
// characteristic curve.
func Build(suite []sipi.NamedImage, opts Options) (*Curve, error) {
	if len(suite) == 0 {
		return nil, errors.New("chart: empty benchmark suite")
	}
	ranges := opts.Ranges
	if len(ranges) == 0 {
		ranges = DefaultRanges()
	}
	sorted := append([]int(nil), ranges...)
	sort.Ints(sorted)
	for i, r := range sorted {
		if r < 2 || r > transform.Levels-1 {
			return nil, fmt.Errorf("chart: target range %d outside [2,255]", r)
		}
		if i > 0 && sorted[i-1] == r {
			return nil, fmt.Errorf("chart: duplicate target range %d", r)
		}
	}
	sub := power.DefaultSubsystem
	if opts.Subsystem != nil {
		sub = *opts.Subsystem
	}

	c := &Curve{Ranges: sorted}
	// Sweep cells are independent: fan out across images, filling
	// pre-indexed slots so a parallel run is bit-identical to a serial
	// one.
	samples := make([]Sample, len(suite)*len(sorted))
	err := parallel.ForEach(context.Background(), len(suite), 0, func(i int) error {
		ni := suite[i]
		for j, r := range sorted {
			d, s, err := DistortionAtRange(ni.Image, r, opts.Metric, sub)
			if err != nil {
				return fmt.Errorf("chart: %s at range %d: %w", ni.Name, r, err)
			}
			samples[i*len(sorted)+j] = Sample{Name: ni.Name, Range: r, Distortion: d, Saving: s}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.Samples = samples
	perRangeSum := make(map[int]float64)
	perRangeMax := make(map[int]float64)
	var xs, ys []float64
	for _, sm := range samples {
		perRangeSum[sm.Range] += sm.Distortion
		if sm.Distortion > perRangeMax[sm.Range] {
			perRangeMax[sm.Range] = sm.Distortion
		}
		xs = append(xs, float64(sm.Range))
		ys = append(ys, sm.Distortion)
	}

	avgPts := make([]fit.Point, 0, len(sorted))
	worstPts := make([]fit.Point, 0, len(sorted))
	for _, r := range sorted {
		avgPts = append(avgPts, fit.Point{X: float64(r), Y: perRangeSum[r] / float64(len(suite))})
		worstPts = append(worstPts, fit.Point{X: float64(r), Y: perRangeMax[r]})
	}
	// Enforce a non-increasing curve (distortion cannot rise with a
	// larger admissible range). Quantization aliasing can produce local
	// bumps; taking the running maximum from the right keeps the lookup
	// conservative and makes MinRange's bisection well-defined.
	enforceNonIncreasing(avgPts)
	enforceNonIncreasing(worstPts)
	if c.Avg, err = fit.NewLinear(avgPts); err != nil {
		return nil, err
	}
	if c.Worst, err = fit.NewLinear(worstPts); err != nil {
		return nil, err
	}
	// Quadratic regression fits (the MATLAB-style global fits), best
	// effort: a degenerate sweep (single range) simply omits them.
	if p, err := fit.PolyFit(xs, ys, 2); err == nil {
		c.AvgPoly = p
	}
	if p, err := fit.EnvelopeFit(xs, ys, 2); err == nil {
		c.WorstPoly = p
	}
	return c, nil
}

// BuildDefault builds the curve from the default 19-image suite at the
// default size with default options.
func BuildDefault() (*Curve, error) {
	suite, err := sipi.Suite(sipi.DefaultSize, sipi.DefaultSize)
	if err != nil {
		return nil, err
	}
	return Build(suite, Options{})
}

// MinRange inverts the characteristic curve: the smallest dynamic range
// whose predicted distortion does not exceed maxDistortion (percent).
// With worstCase true the worst-case fit is used (guaranteeing the
// bound for every benchmark-like image); otherwise the average fit.
// Targets outside the fitted distortion span clamp to the sweep
// endpoints.
func (c *Curve) MinRange(maxDistortion float64, worstCase bool) (int, error) {
	if maxDistortion < 0 {
		return 0, fmt.Errorf("chart: negative distortion budget %v", maxDistortion)
	}
	curve := c.Avg
	if worstCase {
		curve = c.Worst
	}
	lo := float64(c.Ranges[0])
	hi := float64(c.Ranges[len(c.Ranges)-1])
	// Distortion decreases as range grows; invert by bisection.
	x, err := fit.InvertMonotone(curve.Eval, maxDistortion, lo, hi)
	if err != nil {
		return 0, err
	}
	r := int(x + 0.999) // round up: never exceed the budget
	if r < c.Ranges[0] {
		r = c.Ranges[0]
	}
	if r > transform.Levels-1 {
		r = transform.Levels - 1
	}
	return r, nil
}

// PredictedDistortion evaluates the fitted curve at a dynamic range.
func (c *Curve) PredictedDistortion(r int, worstCase bool) float64 {
	if worstCase {
		return c.Worst.Eval(float64(r))
	}
	return c.Avg.Eval(float64(r))
}

// enforceNonIncreasing rewrites the Y values (points sorted by X
// ascending) to their running maximum from the right.
func enforceNonIncreasing(pts []fit.Point) {
	for i := len(pts) - 2; i >= 0; i-- {
		if pts[i].Y < pts[i+1].Y {
			pts[i].Y = pts[i+1].Y
		}
	}
}

// MinRangeExact performs the per-image version of the curve lookup: a
// bisection over [2, 255] on D(R), the measured linear range-reduction
// distortion of this specific image. D(R) is not monotone in R, so the
// result is a local crossing, not necessarily the smallest passing
// range: D(R) ≤ maxDistortion, and R = 2 or D(R−1) > maxDistortion.
// Which crossing it finds depends on the probe path. When no probe
// passes, R = 255. The Table 1 reproduction uses this per-image search,
// which is why its power savings vary across rows.
func MinRangeExact(img *gray.Image, maxDistortion float64, metric Metric) (int, error) {
	if maxDistortion < 0 {
		return 0, fmt.Errorf("chart: negative distortion budget %v", maxDistortion)
	}
	lo, hi := 2, transform.Levels-1
	for lo < hi {
		mid := (lo + hi) / 2
		d, err := RangeReductionDistortion(img, mid, metric)
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
