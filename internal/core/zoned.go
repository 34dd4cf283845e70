// The zoned engine path: Analyze/Plan/Apply per backlight zone. Each
// zone of the backend's grid gets its own histogram, admissible range
// and Λ — per-zone GHE beats the single global β whenever luminance is
// unevenly distributed, because a dark zone can dim far below the
// global optimum. The zone grid fans out on internal/parallel, zone
// plans share the process-wide plan cache (a zone histogram is
// just a histogram), and a raise-only spatial relaxation
// (backlight.Smooth) bounds the β gradient across zone boundaries to
// suppress halo and blocking artifacts; a caller's ZoneFloors hook (the
// video governor) raises zones before it. Driven by a 1×1 CCFL backend
// the path degenerates to exactly the classic pipeline — byte-identical
// frames, bit-identical numbers — which is what TestBackendEquivalence
// pins.
//
// One walk implements the path, the body of ProcessZoned: pooled
// cross-call per-zone state (zonedstate.go) lets byte-identical zones
// skip re-analysis and replay their certified measurements. Its oracle
// is the same walk with memoization off — an engine with
// PlanCacheSize < 0 and a backend whose dynamic type is not
// comparable, so no memo outlives a call
// (TestZonedFastPathEquivalence) — plus an independent per-zone oracle
// built on Engine.Process (TestZonedMatchesPerZoneProcess).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hebs/internal/backlight"
	"hebs/internal/chart"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/invariant"
	"hebs/internal/obs"
	"hebs/internal/parallel"
	"hebs/internal/power"
	"hebs/internal/transform"
)

// Zoned-path sentinel errors (see the noalloc note on the engine's
// error block).
var (
	errNilBackend        = errors.New("core: nil backlight backend")
	errApplyRectNil      = errors.New("core: applyLUTRect with nil argument")
	errApplyRectGeometry = errors.New("core: applyLUTRect geometry mismatch")
	errApplyRectBounds   = errors.New("core: applyLUTRect rectangle out of bounds")
)

// ZoneGridError reports a backend zone grid that does not fit the
// frame (more zone columns than pixel columns, or rows likewise) —
// every zone must own at least one pixel.
type ZoneGridError struct {
	Rows, Cols int
	W, H       int
}

func (e *ZoneGridError) Error() string {
	return fmt.Sprintf("core: %dx%d zone grid does not fit a %dx%d frame (every zone needs at least one pixel)",
		e.Rows, e.Cols, e.W, e.H)
}

// ZoneFloorLengthError reports a ZoneFloors result whose length does
// not match the backend's zone count.
type ZoneFloorLengthError struct {
	Got, Zones int
}

func (e *ZoneFloorLengthError) Error() string {
	return fmt.Sprintf("core: %d zone β floors for a %d-zone backend", e.Got, e.Zones)
}

// ZoneFloors is ProcessZoned's β-floor hook, the temporal governor's
// way in. Phase B calls it once, after the per-zone analysis, with the
// zones' own targets β = R/(G−1) (read-only, valid during the call),
// and raises each zone to its returned floor before smoothing: one
// floor in [0,1] per zone, or nil for none. A raised β only enlarges a
// zone's admissible range, so floors never violate the budget.
type ZoneFloors func(targets []float64) []float64

// ZoneResult is one zone's operating point in a zoned run.
type ZoneResult struct {
	// Zone is the row-major zone index; the rectangle [X0,X1)×[Y0,Y1)
	// is its pixel footprint.
	Zone           int
	X0, Y0, X1, Y1 int
	// Range is the zone's applied dynamic range. TargetBeta is the
	// zone's own HEBS optimum β = R/(G−1) before floors, smoothing and
	// quantization; Beta the applied drive level (≥ TargetBeta).
	Range      int
	TargetBeta float64
	Beta       float64
	// Distortion is the measured distortion of the zone's Λ on the
	// zone's own pixels.
	Distortion float64
	// PlanCached reports the zone's plan was reused rather than solved:
	// a plan-cache hit, or a certified replay of the unchanged zone's
	// memoized plan. Run-history-dependent — identical inputs can
	// differ in this field depending on what ran before.
	PlanCached bool
	// Power is the zone's power at the applied β displaying the
	// transformed zone content.
	Power backlight.ZonePower
}

// ZonedResult is a completed zoned HEBS run.
type ZonedResult struct {
	// Original is the input frame; Transformed the per-zone Λ(F)
	// mosaic (pool-owned — call Release).
	Original    *gray.Image
	Transformed *gray.Image
	// Backend and Grid identify the backlight architecture.
	Backend string
	Grid    backlight.Grid
	// Zones holds the per-zone operating points in row-major order.
	Zones []ZoneResult
	// SmoothSweeps is the number of spatial-relaxation sweeps that
	// changed the β field.
	SmoothSweeps int
	// BetaMin/BetaMax/BetaMean/BetaSpread summarize the applied field
	// (Spread = Max − Min; 0 means the frame ran globally uniform).
	BetaMin, BetaMax, BetaMean, BetaSpread float64
	// AchievedDistortion is the whole-frame distortion of the zoned
	// reconstruction against the original.
	AchievedDistortion float64
	// PowerBefore/PowerAfter sum the zone powers at β=1 on the
	// original and at the applied β field on the transformed frame;
	// PowerSavingPercent compares them as in Table 1.
	PowerBefore, PowerAfter float64
	PowerSavingPercent      float64

	eng *Engine
}

// Release returns the result's pooled transformed frame to the engine.
func (r *ZonedResult) Release() {
	if r == nil || r.eng == nil {
		return
	}
	eng := r.eng
	r.eng = nil
	if r.Transformed != nil {
		eng.putGray(r.Transformed)
		r.Transformed = nil
	}
}

// applyLUTRect remaps src's [x0,x1)×[y0,y1) rectangle through lut into
// the same rectangle of the full-frame dst — the per-zone Apply hot
// path. Each row runs the scalar table lookup of LUT.ApplyInto, so a
// full-frame rectangle produces bytes identical to LUT.ApplyInto.
//
//hebs:noalloc
func applyLUTRect(lut *transform.LUT, src, dst *gray.Image, x0, y0, x1, y1 int) error {
	if lut == nil || src == nil || dst == nil {
		return errApplyRectNil
	}
	if src.W != dst.W || src.H != dst.H || len(src.Pix) != len(dst.Pix) {
		return errApplyRectGeometry
	}
	if x0 < 0 || y0 < 0 || x1 > src.W || y1 > src.H || x0 > x1 || y0 > y1 {
		return errApplyRectBounds
	}
	for y := y0; y < y1; y++ {
		row := src.Pix[y*src.W+x0 : y*src.W+x1]
		out := dst.Pix[y*dst.W+x0 : y*dst.W+x1]
		out = out[:len(row)] // hoists the bounds check out of the loop
		for i, p := range row {
			out[i] = lut[p]
		}
	}
	return nil
}

// copyRect copies src's rectangle with top-left (x0,y0) and dst's
// geometry into the zone-local dst.
//
//hebs:noalloc
func copyRect(src, dst *gray.Image, x0, y0 int) {
	for y := 0; y < dst.H; y++ {
		lo := (y0+y)*src.W + x0
		copy(dst.Pix[y*dst.W:(y+1)*dst.W], src.Pix[lo:lo+dst.W])
	}
}

// ProcessZoned runs the HEBS pipeline independently per backlight zone
// of the backend's grid: per-zone Analyze (histogram + admissible
// range on the zone's own pixels), a serial β-field pass (floors →
// spatial smoothing → backend quantization), then a parallel per-zone
// Plan/Apply with zone-level distortion and power measurement.
//
// The β-field pass only ever raises zones above their own optimum
// (floors and smoothing are raise-only, quantization rounds up), and a
// raised β enlarges the zone's admissible range, so no zone's
// distortion budget is violated by any of the three adjustments.
//
// Across calls the walk reuses pooled per-zone state (zonedstate.go):
// a zone byte-identical to the previous call's skips its analysis,
// one whose operating point also survives phase B replays its plan
// and measurements, and a frame whose zones all replay replays its
// whole-frame distortion. Every shortcut is certified by byte
// comparison, so outputs equal a from-scratch run's.
//
// With a 1×1 global backend the run degenerates to the classic
// pipeline: one zone covering the frame, the same range selection,
// plan (shared cache) and apply kernels — byte-identical Transformed
// pixels, bit-identical distortion and (for the CCFL backend)
// bit-identical power numbers.
func (e *Engine) ProcessZoned(ctx context.Context, img *gray.Image, opts Options, b backlight.Backend, floors ZoneFloors) (*ZonedResult, error) {
	if img == nil {
		return nil, errNilImage
	}
	if b == nil {
		return nil, errNilBackend
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	segments := resolveSegments(opts.Segments)
	if segments < 1 {
		return nil, segmentBudgetError(segments)
	}
	g := b.Grid()
	if g.Rows < 1 || g.Cols < 1 || g.Cols > img.W || g.Rows > img.H {
		return nil, &ZoneGridError{Rows: g.Rows, Cols: g.Cols, W: img.W, H: img.H}
	}
	zones := g.Zones()
	metric := opts.Metric
	if metric == nil {
		metric = chart.UQIMetric
	}

	parent := opts.Trace
	if parent == nil {
		parent = obs.SpanFromContext(ctx)
	}
	sp := parent.Child("core.ProcessZoned")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	sp.SetString("backend", b.Name())
	sp.SetInt("zones", zones)

	st := e.acquireZonedState(img, g, opts, b)
	sealed := false
	defer func() {
		st.sealed = sealed
		e.zonedFree.give(st)
	}()

	// Phase A — per-zone analysis. A zone byte-identical to its
	// reference copy keeps its histogram and range; a changed zone
	// recopies, re-searches, re-bins, and drops its measurement memo.
	err := parallel.ForEach(ctx, zones, e.workers, func(k int) error {
		z := &st.slots[k]
		if z.valid && equalRect(img, z.img, z.x0, z.y0) {
			st.unchanged[k] = true
			mZonedZoneSkips.Inc()
			return nil
		}
		st.unchanged[k] = false
		z.valid = false
		z.mValid = false
		z.plan = nil
		copyRect(img, z.img, z.x0, z.y0)
		r, _, err := e.selectRange(z.img, opts, z.scratch)
		if err != nil {
			return fmt.Errorf("core: zone %d: %w", k, err)
		}
		histogram.OfInto(z.img, &z.hist)
		z.r = r
		z.valid = true
		mZonedZoneRebins.Inc()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase B — the serial β-field pass. Cheap, floor-dependent,
	// deterministic: always recomputed.
	for k := range st.slots {
		st.rs[k] = st.slots[k].r
	}
	sweeps, err := betaField(floors, b, g, st.rs, st.targets, st.betas, st.rngs)
	if err != nil {
		return nil, err
	}

	// Frame-level replay decision, before the fan-out: only when every
	// zone replays is the reconstruction (and hence the frame metric)
	// identical to the memoized run, letting the recon buffer be
	// skipped entirely.
	replayAll := st.frameValid
	if replayAll {
		for k := range st.slots {
			if !st.canReplay(k) {
				replayAll = false
				break
			}
		}
	}

	// Phase C — per-zone Plan/Apply/measure. Replaying zones remap Λ
	// from the memoized plan (the output buffer is always written
	// fresh) and reuse their stored measurements; computing zones run
	// the full stage and store the memo.
	out := e.getGray(img.W, img.H)
	var recon *gray.Image
	if !replayAll {
		recon = e.getGray(img.W, img.H)
		defer e.putGray(recon)
	}
	results := make([]ZoneResult, zones)
	err = parallel.ForEach(ctx, zones, e.workers, func(k int) error {
		z := &st.slots[k]
		if st.canReplay(k) {
			if invariant.Enabled {
				if err := st.checkReplay(ctx, sp, k, segments, opts); err != nil {
					return err
				}
			}
			if err := applyLUTRect(z.plan.Lambda, img, out, z.x0, z.y0, z.x1, z.y1); err != nil {
				return err
			}
			if recon != nil {
				reconLUT, err := z.plan.reconstruction()
				if err != nil {
					return err
				}
				if err := applyLUTRect(reconLUT, img, recon, z.x0, z.y0, z.x1, z.y1); err != nil {
					return err
				}
			}
			r := z.res
			r.PlanCached = true
			results[k] = r
			st.befores[k] = z.before
			mZonedZoneReplays.Inc()
			return nil
		}
		zsp := sp.Child("engine.zone")
		defer zsp.End()
		zsp.SetInt("zone", k)
		plan, cached, err := e.planFor(ctx, zsp, &z.hist, st.rngs[k], segments, opts.Driver, opts.Equalizer)
		if err != nil {
			return fmt.Errorf("core: zone %d: %w", k, err)
		}
		if err := applyLUTRect(plan.Lambda, img, out, z.x0, z.y0, z.x1, z.y1); err != nil {
			return err
		}
		reconLUT, err := plan.reconstruction()
		if err != nil {
			return err
		}
		if err := applyLUTRect(reconLUT, img, recon, z.x0, z.y0, z.x1, z.y1); err != nil {
			return err
		}
		// The zone's own reconstruction is a rectangle of the frame
		// recon just written — copy it out instead of remapping again.
		copyRect(recon, z.scratch, z.x0, z.y0)
		d, err := metric(z.img, z.scratch)
		if err != nil {
			return fmt.Errorf("core: zone %d distortion: %w", k, err)
		}
		total := len(img.Pix)
		before, err := b.ZonePower(1, backlight.ContentOfRect(img, z.x0, z.y0, z.x1, z.y1, total))
		if err != nil {
			return fmt.Errorf("core: zone %d: %w", k, err)
		}
		after, err := b.ZonePower(st.betas[k], backlight.ContentOfRect(out, z.x0, z.y0, z.x1, z.y1, total))
		if err != nil {
			return fmt.Errorf("core: zone %d: %w", k, err)
		}
		st.befores[k] = before
		results[k] = ZoneResult{
			Zone: k, X0: z.x0, Y0: z.y0, X1: z.x1, Y1: z.y1,
			Range: st.rngs[k], TargetBeta: st.targets[k], Beta: st.betas[k],
			Distortion: d, PlanCached: cached, Power: after,
		}
		if st.keyOK {
			z.plan = plan
			z.mRng = st.rngs[k]
			z.mBeta = st.betas[k]
			z.res = results[k]
			z.before = before
			z.mValid = true
		}
		zsp.SetInt("range", st.rngs[k])
		zsp.SetFloat("beta", st.betas[k])
		return nil
	})
	if err != nil {
		e.putGray(out)
		return nil, err
	}

	res := &ZonedResult{
		Original:     img,
		Transformed:  out,
		Backend:      b.Name(),
		Grid:         g,
		Zones:        results,
		SmoothSweeps: sweeps,
		eng:          e,
	}
	if replayAll {
		res.AchievedDistortion = st.frameDist
		mZonedFrameReplays.Inc()
		sp.SetBool("zoned_frame_replay", true)
	} else {
		res.AchievedDistortion, err = metric(img, recon)
		if err != nil {
			res.Release()
			return nil, err
		}
		if st.keyOK {
			st.frameDist = res.AchievedDistortion
			st.frameValid = true
		}
	}
	finalizeZoned(res, st.befores, st.targets, st.betas, sweeps, sp)
	sealed = true
	return res, nil
}

// betaField is phase B — the serial β-field pass: per-zone targets
// from the analyzed ranges rs, the floors hook's floors, the spatial
// relaxation, then the backend's drive grid. targets, betas and rngs
// are filled in place (each of length len(rs)). Returns the
// relaxation sweep count.
func betaField(floors ZoneFloors, b backlight.Backend, g backlight.Grid, rs []int, targets, betas []float64, rngs []int) (sweeps int, err error) {
	for k := range rs {
		beta, err := power.BetaForRange(rs[k], transform.Levels)
		if err != nil {
			return 0, err
		}
		targets[k] = beta
		betas[k] = beta
	}
	if floors != nil {
		fs := floors(targets)
		if len(fs) != 0 && len(fs) != len(betas) {
			return 0, &ZoneFloorLengthError{Got: len(fs), Zones: len(betas)}
		}
		for k, f := range fs {
			if f != f || f < 0 || f > 1 {
				return 0, fmt.Errorf("core: zone %d β floor %v outside [0,1]", k, f)
			}
			if f > betas[k] {
				betas[k] = f
			}
		}
	}
	sweeps, err = backlight.Smooth(betas, g, DefaultZoneMaxGradient)
	if err != nil {
		return 0, err
	}
	maxRaise := 0.0 // the largest quantization raise, for the gradient check
	for k := range betas {
		q := b.QuantizeBeta(betas[k])
		if q < betas[k] || q > 1 || q != q {
			return 0, fmt.Errorf("core: backend %s quantized zone %d β %v to %v (must round up within [0,1])",
				b.Name(), k, betas[k], q)
		}
		maxRaise = max(maxRaise, q-betas[k])
		betas[k] = q
		//hebslint:allow floateq an untouched zone keeps its analyzed range exactly (no β→R round trip)
		if betas[k] == targets[k] {
			rngs[k] = rs[k]
			continue
		}
		rngs[k], err = power.RangeForBeta(betas[k], transform.Levels)
		if err != nil {
			return 0, err
		}
	}
	if invariant.Enabled {
		// Rounding up re-opens the smoothed gradient by at most the
		// largest raise: under one drive step (1/15 at 4-bit PWM).
		bound := DefaultZoneMaxGradient + maxRaise + 1e-9
		for k := range betas {
			if k%g.Cols+1 < g.Cols {
				invariant.Assert(math.Abs(betas[k]-betas[k+1]) <= bound,
					"core: zone gradient |%v-%v| exceeds %v", betas[k], betas[k+1], bound)
			}
			if k/g.Cols+1 < g.Rows {
				invariant.Assert(math.Abs(betas[k]-betas[k+g.Cols]) <= bound,
					"core: zone gradient |%v-%v| exceeds %v", betas[k], betas[k+g.Cols], bound)
			}
		}
	}
	return sweeps, nil
}

// finalizeZoned is the walk's tail: the serial reduction in zone
// index order (so the sums are identical at every worker count and, at
// 1×1, identical to the legacy Subsystem.Power accumulation), the
// invariant checks and the run telemetry. res.Zones and befores must
// be fully populated.
func finalizeZoned(res *ZonedResult, befores []backlight.ZonePower, targets, betas []float64, sweeps int, sp *obs.Span) {
	res.BetaMin, res.BetaMax = betas[0], betas[0]
	var sum float64
	for k := range res.Zones {
		res.PowerBefore += befores[k].Total()
		res.PowerAfter += res.Zones[k].Power.Total()
		sum += betas[k]
		if betas[k] < res.BetaMin {
			res.BetaMin = betas[k]
		}
		if betas[k] > res.BetaMax {
			res.BetaMax = betas[k]
		}
	}
	res.BetaMean = sum / float64(len(betas))
	res.BetaSpread = res.BetaMax - res.BetaMin
	res.PowerSavingPercent = 100 * (1 - res.PowerAfter/res.PowerBefore)

	if invariant.Enabled {
		for k := range betas {
			invariant.AssertBeta("core: zone β", betas[k])
			invariant.Assert(betas[k] >= targets[k],
				"core: zone %d applied β %v below its own optimum %v", k, betas[k], targets[k])
		}
	}

	mZonedRuns.Inc()
	gZonedZones.Set(float64(len(betas)))
	gZonedBetaSpread.Set(res.BetaSpread)
	gZonedPowerAfter.Set(res.PowerAfter)
	mZonedSmoothDist.Observe(float64(sweeps))
	sp.SetFloat("beta_spread", res.BetaSpread)
	sp.SetInt("smooth_sweeps", sweeps)
	sp.SetFloat("achieved_distortion_pct", res.AchievedDistortion)
	sp.SetFloat("power_saving_pct", res.PowerSavingPercent)
}
