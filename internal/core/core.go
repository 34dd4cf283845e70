// Package core implements the HEBS algorithm — Histogram Equalization
// for Backlight Scaling (Iranli, Fatemi & Pedram, DATE 2005) — by
// composing the substrate packages into the four-step flow of Figure 4:
//
//  1. Turn the user's maximum tolerable distortion D_max into the
//     minimum admissible dynamic range R, either through the empirical
//     distortion characteristic curve (Section 3) or by per-image
//     search; R fixes the backlight scaling factor β = R/255.
//  2. Solve Global Histogram Equalization: a monotone Φ mapping the
//     image histogram to a uniform histogram with range R (Eq. 5–7).
//  3. Coarsen Φ to a piecewise-linear Λ with at most m segments via the
//     PLC dynamic program (Eq. 9), m being the number of controllable
//     reference-voltage sources in the LCD driver.
//  4. Apply Λ to the image, dim the backlight by β, and program the
//     PLRD reference voltages V_i = Y_i·V_dd/β (Eq. 10).
package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"hebs/internal/chart"
	"hebs/internal/driver"
	"hebs/internal/equalize"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/invariant"
	"hebs/internal/obs"
	"hebs/internal/plc"
	"hebs/internal/power"
	"hebs/internal/rgb"
	"hebs/internal/transform"
)

// Options configures a HEBS run. The zero value plus one of
// MaxDistortionPercent or DynamicRange is a valid configuration.
type Options struct {
	// MaxDistortionPercent is the distortion budget D_max. Used when
	// DynamicRange is 0.
	MaxDistortionPercent float64
	// DynamicRange, when non-zero, skips step 1 and uses this target
	// range directly (the Figure 8 mode: "dynamic range = 220").
	DynamicRange int
	// ExactSearch selects per-image range search (bisection on the
	// image's own measured range-reduction distortion) instead of the
	// global characteristic-curve lookup. The Table 1 reproduction uses
	// this mode.
	ExactSearch bool
	// Curve is the distortion characteristic curve for the lookup path.
	// When nil and needed, a curve built from the default benchmark
	// suite is used (computed once per process). A non-nil Curve keeps
	// cross-call memos off (KeyFor cannot fingerprint what it points
	// to), so a caller may edit its own curve between calls. The
	// DefaultCurve value must never be edited.
	Curve *chart.Curve
	// WorstCase selects the worst-case fit of the curve instead of the
	// entire-dataset fit.
	WorstCase bool
	// Segments is the PLC budget m. Default: the driver's source count
	// (driver.DefaultConfig.Sources).
	Segments int
	// Metric is the distortion measure; nil means UQI, the paper's
	// choice.
	Metric chart.Metric
	// Subsystem overrides the power model; nil means the LP064V1 model.
	Subsystem *power.Subsystem
	// Driver, when non-nil, also produces the PLRD hardware program
	// realizing Λ.
	Driver *driver.Config
	// Equalizer selects the histogram-equalization variant for step 2
	// (the paper's future-work evaluation): EqualizerGHE (default,
	// Eq. 5–7), EqualizerClipped (contrast-limited, clip factor 3) or
	// EqualizerBBHE (brightness-preserving bi-histogram).
	Equalizer Equalizer
	// Trace, when non-nil, nests this run's observability spans under
	// the given parent (the per-frame loop in internal/video uses this
	// to attribute pipeline time to frames). Nil means each run emits a
	// root span; with no span sink installed tracing costs nothing
	// either way.
	Trace *obs.Span
}

// OptionsKey fingerprints the Options fields a frame's range
// selection, plan and measurements depend on, so cross-call memos (the
// video clip walk's frame −1, the zoned walk's zone state) can tell
// whether a memo still applies. Subsystem and Driver are keyed by the
// values they point to, so changing the pointee between calls moves
// the key. A non-nil Curve makes the options unkeyable, so it has no
// field here. Trace is pure observability and the only field left
// out.
type OptionsKey struct {
	maxDist   float64
	dynRange  int
	exact     bool
	worstCase bool
	segments  int // resolved: 0 and the default source count match
	eq        Equalizer
	sub       power.Subsystem // resolved: nil and DefaultSubsystem match
	drv       driver.Config
	hasDrv    bool
}

// KeyFor builds the options fingerprint. ok is false when the options
// cannot be fingerprinted — a custom Metric func, a Curve (its tables
// can change behind the pointer), or a Driver whose LC model's dynamic
// type is not comparable — and then no memo may survive across calls.
func KeyFor(opts Options) (key OptionsKey, ok bool) {
	if !comparableDriver(opts.Driver) {
		return OptionsKey{}, false
	}
	key = OptionsKey{
		maxDist:   opts.MaxDistortionPercent,
		dynRange:  opts.DynamicRange,
		exact:     opts.ExactSearch,
		worstCase: opts.WorstCase,
		segments:  resolveSegments(opts.Segments),
		eq:        opts.Equalizer,
		sub:       power.DefaultSubsystem,
	}
	if opts.Subsystem != nil {
		key.sub = *opts.Subsystem
	}
	if opts.Driver != nil {
		key.drv, key.hasDrv = *opts.Driver, true
	}
	return key, opts.Metric == nil && opts.Curve == nil
}

// comparableDriver reports whether drv can be compared by value: == on
// a driver.Config panics when its LC model's dynamic type is not
// comparable. All shipped LC models are comparable value types.
func comparableDriver(drv *driver.Config) bool {
	return drv == nil || drv.LC == nil || reflect.TypeOf(drv.LC).Comparable()
}

// DefaultZoneMaxGradient is the zone-boundary |Δβ| bound of
// ProcessZoned's spatial smoothing: a quarter of full scale per zone
// step keeps bright objects from sitting against fully-dark neighbor
// zones without erasing the local-dimming saving.
const DefaultZoneMaxGradient = 0.25

// clipFactor is the contrast limit of EqualizerClipped.
const clipFactor = 3

// Equalizer names a histogram-equalization variant.
type Equalizer int

// The supported equalization methods.
const (
	EqualizerGHE Equalizer = iota
	EqualizerClipped
	EqualizerBBHE
)

// String implements fmt.Stringer for diagnostics and report tables.
func (e Equalizer) String() string {
	switch e {
	case EqualizerGHE:
		return "ghe"
	case EqualizerClipped:
		return "clipped"
	case EqualizerBBHE:
		return "bbhe"
	default:
		return fmt.Sprintf("equalizer(%d)", int(e))
	}
}

// Result is a completed HEBS run.
type Result struct {
	// Original is the input image.
	Original *gray.Image
	// Transformed is Λ(F), the image stored in the frame buffer.
	Transformed *gray.Image
	// Lambda is the hardware-friendly piecewise-linear transformation.
	Lambda *transform.LUT
	// Breakpoints are Λ's segment endpoints Q (at most Segments+1).
	Breakpoints []transform.Point
	// Exact is the un-coarsened GHE solution Φ.
	Exact *equalize.Result
	// Range is the admissible dynamic range R chosen in step 1.
	Range int
	// Beta is the backlight scaling factor β = R/255.
	Beta float64
	// PredictedDistortion is the distortion the range-selection path
	// promised (curve value or measured range-reduction distortion);
	// 0 in direct DynamicRange mode.
	PredictedDistortion float64
	// AchievedDistortion is the measured distortion of Λ on this image.
	// Equalization merges only sparsely-populated levels, so this is
	// typically below PredictedDistortion.
	AchievedDistortion float64
	// PLCError is the mean squared error between Φ and Λ (levels²).
	PLCError float64
	// PowerBefore and PowerAfter are subsystem powers at β=1 with the
	// original image and at β with the transformed image.
	PowerBefore, PowerAfter float64
	// PowerSavingPercent is the headline number of Table 1.
	PowerSavingPercent float64
	// Program is the PLRD configuration (nil unless Options.Driver set).
	Program *driver.Program
	// RealizationError is the MSE between the hardware's displayed
	// luminance and Λ (0 unless Options.Driver set).
	RealizationError float64
	// PlanCached reports whether the Plan came from the plan cache
	// rather than a fresh equalize/plc solve (always false on engines
	// with caching disabled, including the legacy wrappers).
	PlanCached bool

	// eng is the engine whose pool owns Transformed; set by
	// Engine.Process so Release can recycle the buffer.
	eng *Engine
}

// Stats is the one-struct summary of a completed run: the operating
// point and outcome quantities that CLIs, reports and the metrics
// layer previously re-derived independently from Result fields. The
// JSON tags define the machine-readable form used by hebsbench -json.
type Stats struct {
	// Range is the admissible dynamic range R; Beta = R/255.
	Range int     `json:"range"`
	Beta  float64 `json:"beta"`
	// Segments is the realized PLC segment count (len(Breakpoints)-1).
	Segments int `json:"segments"`
	// PredictedDistortion is the step-1 promise, AchievedDistortion the
	// measured distortion of Λ on this image (both percent).
	PredictedDistortion float64 `json:"predicted_distortion_pct"`
	AchievedDistortion  float64 `json:"achieved_distortion_pct"`
	// PLCError is the Φ-vs-Λ MSE (levels²).
	PLCError float64 `json:"plc_mse"`
	// Power numbers in watts; PowerSavingPercent is the Table 1 metric.
	PowerBefore        float64 `json:"power_before_w"`
	PowerAfter         float64 `json:"power_after_w"`
	PowerSavingPercent float64 `json:"power_saving_pct"`
	// RealizationError is the hardware-vs-Λ MSE (0 without a driver).
	RealizationError float64 `json:"realization_mse"`
}

// Stats collects the run's summary quantities.
func (r *Result) Stats() Stats {
	segments := len(r.Breakpoints) - 1
	if segments < 0 {
		segments = 0
	}
	return Stats{
		Range:               r.Range,
		Beta:                r.Beta,
		Segments:            segments,
		PredictedDistortion: r.PredictedDistortion,
		AchievedDistortion:  r.AchievedDistortion,
		PLCError:            r.PLCError,
		PowerBefore:         r.PowerBefore,
		PowerAfter:          r.PowerAfter,
		PowerSavingPercent:  r.PowerSavingPercent,
		RealizationError:    r.RealizationError,
	}
}

var (
	defaultCurveOnce sync.Once
	defaultCurve     *chart.Curve
	defaultCurveErr  error
)

// DefaultCurve returns the distortion characteristic curve built from
// the default 19-image benchmark suite, computing it on first use. The
// curve is shared by every caller in the process and must not be
// edited; copy it to change it.
// The lookups/builds counter pair in the metrics registry exposes the
// cache behaviour: hits = lookups − builds.
func DefaultCurve() (*chart.Curve, error) {
	mCurveLookups.Inc()
	defaultCurveOnce.Do(func() {
		mCurveBuilds.Inc()
		defaultCurve, defaultCurveErr = chart.BuildDefault()
	})
	return defaultCurve, defaultCurveErr
}

// selectRange performs step 1 (D_max → R) for the two modes that need
// no pixels: a direct DynamicRange and the characteristic-curve
// lookup. Engine.selectRange runs the per-image ExactSearch itself.
func selectRange(opts Options) (r int, predicted float64, err error) {
	if opts.DynamicRange != 0 {
		if opts.DynamicRange < 1 || opts.DynamicRange > transform.Levels-1 {
			return 0, 0, fmt.Errorf("core: dynamic range %d outside [1,255]", opts.DynamicRange)
		}
		return opts.DynamicRange, 0, nil
	}
	if opts.MaxDistortionPercent <= 0 {
		return 0, 0, errors.New("core: need MaxDistortionPercent > 0 or DynamicRange")
	}
	curve := opts.Curve
	if curve == nil {
		curve, err = DefaultCurve()
		if err != nil {
			return 0, 0, err
		}
	}
	r, err = curve.MinRange(opts.MaxDistortionPercent, opts.WorstCase)
	if err != nil {
		return 0, 0, err
	}
	return r, curve.PredictedDistortion(r, opts.WorstCase), nil
}

// Plan is the image-independent part of a HEBS run: everything the LCD
// controller needs, derived from the histogram alone. In the hardware
// flow of Figure 4 this is exactly what gets computed — the controller's
// histogram estimator feeds the GHE/PLC solver and the resulting
// reference voltages are latched; pixel data itself never passes
// through the CPU.
type Plan struct {
	// Lambda is the piecewise-linear transformation to program.
	Lambda *transform.LUT
	// Breakpoints are Λ's endpoints Q.
	Breakpoints []transform.Point
	// Exact is the un-coarsened GHE solution Φ.
	Exact *equalize.Result
	// Range and Beta are the operating point.
	Range int
	Beta  float64
	// PLCError is the Φ-vs-Λ MSE (levels²).
	PLCError float64
	// Program is the PLRD configuration (nil unless a driver config was
	// given).
	Program *driver.Program

	// reconstruction cache: Φ⁻¹∘Φ is a pure function of Lambda, and
	// cached plans are shared across frames, so it is computed at most
	// once per plan (see Plan.reconstruction in engine.go).
	reconOnce sync.Once
	recon     *transform.LUT
	reconErr  error
}

// planFromHistogramCtx computes the HEBS transform for a target
// dynamic range directly from a histogram — the runtime path on
// hardware with a histogram estimator. segments <= 0 selects the
// default driver source count; drv may be nil to skip voltage
// programming; eq selects the equalization variant. The caller's span
// parents the stage spans (Process passes its run span), and ctx is
// checked between stages (the PLC DP also checks it per column,
// bounding cancellation latency on large solves).
func planFromHistogramCtx(ctx context.Context, parent *obs.Span, h *histogram.Histogram, r, segments int, drv *driver.Config, eq Equalizer) (*Plan, error) {
	if h == nil || h.N == 0 {
		return nil, errors.New("core: empty histogram")
	}
	if r < 1 || r > transform.Levels-1 {
		return nil, fmt.Errorf("core: dynamic range %d outside [1,255]", r)
	}
	if segments <= 0 {
		segments = driver.DefaultConfig.Sources
	}
	beta, err := power.BetaForRange(r, transform.Levels)
	if err != nil {
		return nil, err
	}
	if invariant.Enabled {
		// Section 3: the admissible range stays within [1, G−1] and the
		// backlight dimming factor β = R/(G−1) is a valid scale in (0,1].
		invariant.Assert(r >= 1 && r <= transform.Levels-1,
			"core: admissible range R = %d outside [1, G−1]", r)
		invariant.AssertBeta("core: β = R/(G−1)", beta)
	}

	// Step 2: GHE (Eq. 5–7) in the selected variant.
	eqSpan, eqDone := stage(parent, stageEqualize)
	eqSpan.SetString("variant", eq.String())
	var ghe *equalize.Result
	switch eq {
	case EqualizerGHE:
		ghe, err = equalize.SolveRangeCtx(ctx, h, r)
	case EqualizerClipped:
		if err = ctx.Err(); err == nil {
			ghe, err = equalize.SolveClipped(h, 0, r, clipFactor)
		}
	case EqualizerBBHE:
		if err = ctx.Err(); err == nil {
			ghe, err = equalize.SolveBBHE(h, 0, r)
		}
	default:
		err = fmt.Errorf("core: unknown equalizer %v", eq)
	}
	eqDone.end(err)
	if err != nil {
		return nil, err
	}

	// Step 3: coarsen Φ to Λ via the PLC DP (Eq. 9).
	plcSpan, plcDone := stage(parent, stagePLC)
	coarse, err := plc.CoarsenCtx(ctx, plcSpan, ghe.Points(), segments)
	var lambda *transform.LUT
	if err == nil {
		lambda, err = coarse.LUT()
	}
	plcDone.end(err)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		Lambda:      lambda,
		Breakpoints: coarse.Points,
		Exact:       ghe,
		Range:       r,
		Beta:        beta,
		PLCError:    coarse.MSE,
	}
	if drv != nil {
		// PLRD voltage programming (Eq. 10).
		_, drvDone := stage(parent, stageDriver)
		plan.Program, err = driver.ProgramHierarchical(*drv, coarse.Points, beta)
		drvDone.end(err)
		if err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// Process runs the full HEBS pipeline on an image. It delegates to
// the process-wide default Engine (plan cache disabled), so outputs,
// metrics and span trees are identical to the pre-engine pipeline;
// use Engine.Process directly for cancellation, plan caching and
// buffer recycling.
func Process(img *gray.Image, opts Options) (*Result, error) {
	return DefaultEngine().Process(context.Background(), img, opts)
}

// ProcessContext is Process with cooperative cancellation between
// pipeline stages (and inside the PLC dynamic program).
func ProcessContext(ctx context.Context, img *gray.Image, opts Options) (*Result, error) {
	return DefaultEngine().Process(ctx, img, opts)
}

// DitheredPreview renders the compensated preview through
// Floyd–Steinberg error diffusion on the exact (un-coarsened,
// fractional) Φ — the FRC-style banding mitigation real LCD timing
// controllers apply. Compared to CompensatedPreview, adjacent output
// codes alternate spatially instead of forming contours.
func (r *Result) DitheredPreview() (*gray.Image, error) {
	curve, err := transform.CompensatedCurve(&r.Exact.Exact, r.Beta)
	if err != nil {
		return nil, err
	}
	return transform.ApplyErrorDiffusion(r.Original, curve)
}

// ColorResult is a HEBS run on a color image: the luma-plane decision
// plus the color frame produced by driving all three channels through
// the shared transfer function Λ.
type ColorResult struct {
	// Result holds the luma-plane pipeline outputs (β, Λ, distortion
	// and power metrics). Its Original/Transformed fields are the luma
	// images.
	*Result
	// OriginalColor and TransformedColor are the color frames.
	OriginalColor, TransformedColor *rgb.Image
}

// ProcessColor runs HEBS on a color image. The admissible range,
// backlight factor and transfer function are decided on the Rec. 601
// luma plane — the quantity the HVS-oriented distortion model sees —
// and Λ is then applied identically to R, G and B, mirroring the
// hardware where the three sub-pixel columns share the source-driver
// reference ladder (Section 2).
func ProcessColor(img *rgb.Image, opts Options) (*ColorResult, error) {
	return DefaultEngine().ProcessColor(context.Background(), img, opts)
}

// CompensatedColorPreview renders the color frame as perceived after
// contrast compensation — the Figure 8 style preview in color.
func (r *ColorResult) CompensatedColorPreview() (*rgb.Image, error) {
	comp, err := transform.ContrastScale(r.Beta)
	if err != nil {
		return nil, err
	}
	return r.OriginalColor.ApplyLUT(r.Lambda.Compose(comp)), nil
}

// CompensatedPreview renders the image as the viewer perceives it after
// contrast compensation spreads Λ(F) back over the full luminance
// swing — useful for the Figure 8 style side-by-side dumps.
func (r *Result) CompensatedPreview() (*gray.Image, error) {
	comp, err := transform.ContrastScale(r.Beta)
	if err != nil {
		return nil, err
	}
	return r.Lambda.Compose(comp).Apply(r.Original), nil
}
