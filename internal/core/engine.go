// The engine: the pipeline of Figure 4 with explicit scratch-state
// ownership. Engine.Process is the one per-frame entry point, and its
// three stages are internal to it:
//
//   - Analyze: admissible-range selection (step 1, Section 3) plus
//     histogram extraction — per-image, cheap, cancellable.
//   - Plan: Φ equalization (Eq. 5–7), PLC coarsening (Eq. 9), β and the
//     PLRD driver program (Eq. 10) — pure and image-size-independent:
//     it depends only on the histogram, so identical histograms yield
//     identical plans and the shared plan cache (plancache.go) makes
//     steady-state video planning free.
//   - Apply: the per-pixel Λ remap into a pooled buffer — the only
//     stage that touches pixel data — followed by the distortion and
//     power measurements.
//
// An Engine owns sync.Pool-backed frame buffers, pooled histograms and
// the cross-call state of both clip walks, shares the plan cache, and
// threads context.Context through every stage so long runs cancel
// promptly. The package-level Process, ProcessContext
// and ProcessColor delegate to a default Engine whose plan cache is
// disabled, so every call recomputes and traces the full stage set.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hebs/internal/chart"
	"hebs/internal/driver"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/obs"
	"hebs/internal/power"
	"hebs/internal/rgb"
	"hebs/internal/transform"
)

// ConflictingOptionsError reports an Options value that asks for both
// the direct-range mode (DynamicRange != 0, which bypasses step 1
// entirely) and the per-image exact range search (ExactSearch) — the
// two are mutually exclusive ways of choosing R, and silently
// preferring one hid configuration bugs.
type ConflictingOptionsError struct {
	// DynamicRange is the directly requested range that conflicted
	// with ExactSearch.
	DynamicRange int
}

func (e *ConflictingOptionsError) Error() string {
	return fmt.Sprintf("core: DynamicRange %d and ExactSearch are mutually exclusive (a direct range bypasses the per-image search)", e.DynamicRange)
}

// errNaNBudget rejects a NaN distortion budget: every comparison
// with NaN is false, so it would slip past the "budget > 0" guard and
// pick an arbitrary range.
var errNaNBudget = errors.New("core: MaxDistortionPercent is NaN")

// validateOptions rejects contradictory or meaningless Options before
// any pipeline work starts. Kept out of line so the error
// construction on its cold path is not billed to the //hebs:noalloc
// entry points that inline it.
//
//go:noinline
func validateOptions(opts Options) error {
	if opts.DynamicRange != 0 && opts.ExactSearch {
		return &ConflictingOptionsError{DynamicRange: opts.DynamicRange}
	}
	if math.IsNaN(opts.MaxDistortionPercent) {
		return errNaNBudget
	}
	return nil
}

// EngineOptions configures a new Engine.
type EngineOptions struct {
	// PlanCacheSize switches plan caching: a negative value disables it
	// (every Process recomputes its plan, emitting the full equalize/plc
	// span set); any other value joins the process-wide plan cache,
	// one LRU shared across zones, engines and clips with exact-match
	// verification (plancache.go). The cache is sized globally, so the
	// magnitude is ignored.
	PlanCacheSize int

	// Workers bounds ProcessZoned's fan-out across zones. 0 or 1 runs
	// the zones serially (the default), n > 1 allows up to n goroutines,
	// and a negative value selects GOMAXPROCS. Outputs are identical at
	// every setting. Process and ProcessColor are serial: their pixel
	// kernels (histogram, Λ remap) have one implementation each, and
	// callers parallelize across frames or images instead.
	Workers int
}

// Engine runs the HEBS pipeline with reusable scratch state: pooled
// gray/rgb frame buffers and histograms (so steady-state processing
// allocates ~nothing per frame) and, unless disabled, the shared plan
// cache. An Engine is safe for concurrent use; the zero value is not
// valid — use NewEngine.
type Engine struct {
	// plans is the process-wide plan cache, nil when caching is
	// disabled (PlanCacheSize < 0).
	plans *planCache

	// workers is the resolved EngineOptions.Workers: >= 1, where 1
	// means the zones of ProcessZoned run serially.
	workers int

	grayPool sync.Pool
	rgbPool  sync.Pool
	histPool sync.Pool

	// rangeRecon lazily caches, per target range r, the reconstruction
	// LUT Φ⁻¹∘Φ of plain linear compression to r. The LUT depends only
	// on r, and the exact range search evaluates O(log 255) of them per
	// search — cached, the search's only per-candidate work is the
	// pixel remap into pooled scratch plus the metric.
	rangeRecon [transform.Levels]atomic.Pointer[transform.LUT]

	gets, puts, misses atomic.Int64

	// zonedFree holds the zoned walk's cross-call states and clipFree
	// the classic clip walk's (AcquireClipState), so every memo in them
	// belongs to this engine.
	zonedFree freeList[*zonedState]
	clipFree  freeList[any]
}

// freeList is a mutex-guarded LIFO of cross-call state: the next call
// gets back the state the last one released, memos included, which a
// sync.Pool may drop. It grows to the peak number of concurrent
// holders.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// take pops the most recently released item (the zero T when the list
// is empty).
func (f *freeList[T]) take() (item T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.items); n > 0 {
		item, f.items = f.items[n-1], f.items[:n-1]
	}
	return item
}

// give pushes item for the next take.
func (f *freeList[T]) give(item T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.items = append(f.items, item)
}

// AcquireClipState takes the most recently released clip-walk state
// off the engine's free list, nil when it is empty. internal/video
// keeps its classic clip walk's per-clip scratch and frame −1 there, so
// that memo never leaves the engine whose clips filled it; core never
// looks inside.
func (e *Engine) AcquireClipState() any { return e.clipFree.take() }

// ReleaseClipState returns a state taken with AcquireClipState (or a
// new one) for the engine's next clip.
func (e *Engine) ReleaseClipState(st any) { e.clipFree.give(st) }

// NewEngine returns an Engine with the given options.
func NewEngine(opts EngineOptions) *Engine {
	e := &Engine{workers: resolveWorkers(opts.Workers)}
	if opts.PlanCacheSize >= 0 {
		e.plans = globalPlanCache
	}
	return e
}

// resolveWorkers maps the Workers convention (0/1 serial, n > 1
// bounded, negative GOMAXPROCS) to a concrete count >= 1.
func resolveWorkers(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// Workers reports the engine's resolved zone fan-out bound (1 means
// serial).
func (e *Engine) Workers() int { return e.workers }

// Hot-path sentinel errors. Inlined errors.New calls surface as heap
// allocations at the call site under the hebsvet escape-analysis gate,
// so every error an annotated function can return on its guard paths
// is constructed once here.
var (
	errNilImage      = errors.New("core: nil image")
	errNilColorImage = errors.New("core: nil color image")
)

// resolveSegments maps Options.Segments to the PLC budget m: 0 selects
// the default driver's source count. A result below 1 is invalid.
func resolveSegments(n int) int {
	if n == 0 {
		return driver.DefaultConfig.Sources
	}
	return n
}

// segmentBudgetError formats the out-of-range segment diagnostic in
// its own (never-inlined) frame so the fmt boxing does not count as an
// allocation inside //hebs:noalloc callers.
//
//go:noinline
func segmentBudgetError(segments int) error {
	return fmt.Errorf("core: segment budget %d < 1", segments)
}

var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// DefaultEngine returns the process-wide Engine backing the
// package-level Process, ProcessContext and ProcessColor. Its plan
// cache is disabled so every such run recomputes (and traces) the full
// equalize/plc stage set; buffer pools are still active but only help
// callers that Release.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() {
		defaultEngine = NewEngine(EngineOptions{PlanCacheSize: -1})
	})
	return defaultEngine
}

// PoolStats is a snapshot of an Engine's buffer-pool counters: Gets
// counts buffers handed out (pooled or freshly allocated), Misses the
// subset that had to allocate, Puts the buffers returned via Release.
type PoolStats struct {
	Gets, Puts, Misses int64
}

// InUse returns the number of pool-managed buffers currently held by
// callers. A leak-free workload that releases every result drains
// back to zero.
func (s PoolStats) InUse() int64 { return s.Gets - s.Puts }

// PoolStats snapshots the engine's buffer-pool counters.
func (e *Engine) PoolStats() PoolStats {
	return PoolStats{Gets: e.gets.Load(), Puts: e.puts.Load(), Misses: e.misses.Load()}
}

func (e *Engine) getGray(w, h int) *gray.Image {
	e.gets.Add(1)
	mPoolGets.Inc()
	if v := e.grayPool.Get(); v != nil {
		img := v.(*gray.Image)
		if img.W == w && img.H == h {
			return img
		}
		// Geometry changed: drop the stale buffer and allocate fresh.
	}
	e.misses.Add(1)
	mPoolMisses.Inc()
	return gray.New(w, h)
}

func (e *Engine) putGray(img *gray.Image) {
	if img == nil {
		return
	}
	e.puts.Add(1)
	mPoolPuts.Inc()
	e.grayPool.Put(img)
}

func (e *Engine) getRGB(w, h int) *rgb.Image {
	e.gets.Add(1)
	mPoolGets.Inc()
	if v := e.rgbPool.Get(); v != nil {
		img := v.(*rgb.Image)
		if img.W == w && img.H == h {
			return img
		}
	}
	e.misses.Add(1)
	mPoolMisses.Inc()
	return rgb.New(w, h)
}

func (e *Engine) putRGB(img *rgb.Image) {
	if img == nil {
		return
	}
	e.puts.Add(1)
	mPoolPuts.Inc()
	e.rgbPool.Put(img)
}

func (e *Engine) getHist() *histogram.Histogram {
	e.gets.Add(1)
	mPoolGets.Inc()
	if v := e.histPool.Get(); v != nil {
		return v.(*histogram.Histogram)
	}
	e.misses.Add(1)
	mPoolMisses.Inc()
	return &histogram.Histogram{}
}

func (e *Engine) putHist(h *histogram.Histogram) {
	if h == nil {
		return
	}
	e.puts.Add(1)
	mPoolPuts.Inc()
	e.histPool.Put(h)
}

// Release returns the result's pooled buffers (the transformed frame)
// to the engine that produced it. The result's Transformed field is
// nil afterwards and the result must not be reused. Release on a
// result from the legacy wrappers or a second Release is a safe no-op
// only after the first call; results never released are simply not
// recycled (no leak beyond normal GC).
func (r *Result) Release() {
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

// Release returns the color result's pooled buffers: the luma plane
// (Original/Transformed of the embedded Result) and the transformed
// color frame. The result must not be used afterwards.
func (r *ColorResult) Release() {
	if r == nil || r.Result == nil || r.Result.eng == nil {
		return
	}
	eng := r.Result.eng
	if r.TransformedColor != nil {
		eng.putRGB(r.TransformedColor)
		r.TransformedColor = nil
	}
	// The luma plane is engine-allocated (unlike the gray pipeline,
	// where Original belongs to the caller).
	if r.Result.Original != nil {
		eng.putGray(r.Result.Original)
		r.Result.Original = nil
	}
	r.Result.Release()
}

// reconForRange returns the reconstruction LUT of linear compression
// to range r, cached on the engine.
func (e *Engine) reconForRange(r int) (*transform.LUT, error) {
	if recon := e.rangeRecon[r].Load(); recon != nil {
		return recon, nil
	}
	lut, err := transform.ScaleToRange(0, uint8(r))
	if err != nil {
		return nil, err
	}
	recon, err := lut.Reconstruction()
	if err != nil {
		return nil, err
	}
	// A concurrent search may store its own copy first; either value is
	// identical, so a plain store is fine.
	e.rangeRecon[r].Store(recon)
	return recon, nil
}

// rangeReductionDistortion is chart.RangeReductionDistortion through
// the engine's reconstruction cache and a caller-provided scratch
// buffer: numerically identical, allocation-free once warm.
func (e *Engine) rangeReductionDistortion(img *gray.Image, r int, metric chart.Metric, scratch *gray.Image) (float64, error) {
	recon, err := e.reconForRange(r)
	if err != nil {
		return 0, err
	}
	if metric == nil {
		metric = chart.UQIMetric
	}
	if err := recon.ApplyInto(img, scratch); err != nil {
		return 0, err
	}
	return metric(img, scratch)
}

// minRangeExact is chart.MinRangeExact plus the predicted distortion,
// run on pooled scratch state: the same local crossing of the
// non-monotone D(R) over [2, 255] (D(R) ≤ the budget, and R = 2 or
// D(R−1) > the budget; R = 255 when no probe passes) and D(R), the last
// passing probe's value, measured anew only when none passed. The
// bisection is one serial chain of probes. scratch (img's geometry) is
// the probe buffer; nil draws one from the engine pool. The zoned walk
// passes each zone slot's persistent buffer so per-zone searches stop
// cycling the pool between zone and frame geometries.
func (e *Engine) minRangeExact(img *gray.Image, maxDistortion float64, metric chart.Metric, scratch *gray.Image) (r int, predicted float64, err error) {
	if scratch == nil {
		scratch = e.getGray(img.W, img.H)
		defer e.putGray(scratch)
	}
	lo, hi := 2, transform.Levels-1
	hiProbed := false // a passing probe measured hi into predicted
	for lo < hi {
		mid := (lo + hi) / 2
		d, err := e.rangeReductionDistortion(img, mid, metric, scratch)
		if err != nil {
			return 0, 0, err
		}
		if d <= maxDistortion {
			hi, predicted, hiProbed = mid, d, true
		} else {
			lo = mid + 1
		}
	}
	if !hiProbed {
		predicted, err = e.rangeReductionDistortion(img, lo, metric, scratch)
		if err != nil {
			return 0, 0, err
		}
	}
	return lo, predicted, nil
}

// selectRange is step 1 (D_max → R) through the engine: the
// ExactSearch path runs against the per-range reconstruction cache and
// the probe buffer scratch (nil = pooled; see minRangeExact); every
// other mode is the package-level selectRange. Callers validate opts
// first, so a NaN budget never reaches the search.
func (e *Engine) selectRange(img *gray.Image, opts Options, scratch *gray.Image) (r int, predicted float64, err error) {
	if opts.ExactSearch && opts.DynamicRange == 0 && opts.MaxDistortionPercent > 0 {
		return e.minRangeExact(img, opts.MaxDistortionPercent, opts.Metric, scratch)
	}
	return selectRange(opts)
}

// SelectRange runs step 1 alone — the D_max → R admissible-range
// decision — without extracting a histogram or planning. The video
// clip scheduler uses it to resolve per-frame target ranges before the
// serial β governor pass. The search is recorded as one range_select
// stage — a latency sample and a stage.range_select span under ctx's
// span — exactly as inside Process.
func (e *Engine) SelectRange(ctx context.Context, img *gray.Image, opts Options) (r int, predicted float64, err error) {
	if img == nil {
		return 0, 0, errNilImage
	}
	if err := validateOptions(opts); err != nil {
		return 0, 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	_, rsDone := stage(obs.SpanFromContext(ctx), stageRangeSelect)
	r, predicted, err = e.selectRange(img, opts, nil)
	rsDone.end(err)
	return r, predicted, err
}

// planFor computes (or retrieves from the plan cache) the Plan for a
// histogram at range r and resolved segment budget, with stage spans
// as children of parent. A driver config that cannot be compared by
// value bypasses the cache.
func (e *Engine) planFor(ctx context.Context, parent *obs.Span, h *histogram.Histogram, r, segments int, drv *driver.Config, eq Equalizer) (plan *Plan, cached bool, err error) {
	var hash uint64
	plans := e.plans
	if !comparableDriver(drv) {
		plans = nil
	}
	if plans != nil {
		hash = h.Fingerprint()
		if plan := plans.lookup(hash, h, r, segments, drv, eq); plan != nil {
			mPlanCacheHits.Inc()
			parent.SetBool("plan_cached", true)
			return plan, true, nil
		}
		mPlanCacheMisses.Inc()
	}
	plan, err = planFromHistogramCtx(ctx, parent, h, r, segments, drv, eq)
	if err != nil {
		return nil, false, err
	}
	if plans != nil {
		plans.store(hash, h, r, segments, drv, eq, plan)
	}
	return plan, false, nil
}

// transformDistortion is chart.TransformDistortion evaluated through
// the engine's pooled buffers and the plan's cached reconstruction
// LUT: numerically identical (integer pixel remap + the exact
// running-sum window walker), allocation-free in steady state.
//
//hebs:noalloc
func (e *Engine) transformDistortion(img *gray.Image, plan *Plan, metric chart.Metric) (float64, error) {
	recon, err := plan.reconstruction()
	if err != nil {
		return 0, err
	}
	if metric == nil {
		metric = chart.UQIMetric
	}
	displayed := e.getGray(img.W, img.H)
	defer e.putGray(displayed)
	if err := recon.ApplyInto(img, displayed); err != nil {
		return 0, err
	}
	return metric(img, displayed)
}

// Process runs the full HEBS pipeline on an image — Analyze (range
// selection, histogram) → Plan (cache-served) → Apply → the
// distortion and power measurements — with per-stage cancellation via
// ctx and the transformed frame drawn from the engine pool (call
// Result.Release to recycle it). It is the engine's one per-frame
// entry point: every classic frame that measures runs through it.
func (e *Engine) Process(ctx context.Context, img *gray.Image, opts Options) (*Result, error) {
	if img == nil {
		return nil, errNilImage
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	segments := resolveSegments(opts.Segments)
	if segments < 1 {
		return nil, segmentBudgetError(segments)
	}
	sub := power.DefaultSubsystem
	if opts.Subsystem != nil {
		sub = *opts.Subsystem
	}
	parent := opts.Trace
	if parent == nil {
		parent = obs.SpanFromContext(ctx)
	}
	sp := parent.Child("core.Process")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)

	// Step 1 + histogram extraction (Analyze).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, rsDone := stage(sp, stageRangeSelect)
	r, predicted, err := e.selectRange(img, opts, nil)
	if opts.DynamicRange != 0 && err == nil {
		// A forced range is a lookup, not a search: it keeps its span so
		// the trace shows every Figure 4 stage, but only range decisions
		// feed the latency histogram. The video scheduler searches in
		// SelectRange and re-runs Process at the governed range, so each
		// searched frame records one sample, not two.
		rsDone.sp.End()
	} else {
		rsDone.end(err)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, histDone := stage(sp, stageHistogram)
	h := e.getHist()
	defer e.putHist(h)
	histogram.OfInto(img, h)
	histDone.end(nil)

	// Steps 2+3: histogram -> Φ -> Λ (+ the PLRD program) — the Plan
	// stage, the part the LCD controller computes from its histogram
	// estimator alone.
	plan, planCached, err := e.planFor(ctx, sp, h, r, segments, opts.Driver, opts.Equalizer)
	if err != nil {
		return nil, err
	}

	// Step 4: apply Λ; measure what the dimmed display delivers.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, applyDone := stage(sp, stageApply)
	transformed := e.getGray(img.W, img.H)
	err = plan.Lambda.ApplyInto(img, transformed)
	applyDone.end(err)
	if err != nil {
		e.putGray(transformed)
		return nil, err
	}
	res := &Result{
		Original:            img,
		Transformed:         transformed,
		Lambda:              plan.Lambda,
		Breakpoints:         plan.Breakpoints,
		Exact:               plan.Exact,
		Range:               plan.Range,
		Beta:                plan.Beta,
		PredictedDistortion: predicted,
		PLCError:            plan.PLCError,
		Program:             plan.Program,
		PlanCached:          planCached,
		eng:                 e,
	}
	if err := ctx.Err(); err != nil {
		res.Release()
		return nil, err
	}
	_, distDone := stage(sp, stageDistortion)
	res.AchievedDistortion, err = e.transformDistortion(img, plan, opts.Metric)
	distDone.end(err)
	if err != nil {
		res.Release()
		return nil, err
	}
	_, powDone := stage(sp, stagePower)
	res.PowerBefore, err = sub.Power(img, 1)
	if err == nil {
		res.PowerAfter, err = sub.Power(res.Transformed, plan.Beta)
	}
	powDone.end(err)
	if err != nil {
		res.Release()
		return nil, err
	}
	res.PowerSavingPercent = 100 * (1 - res.PowerAfter/res.PowerBefore)

	if res.Program != nil {
		res.RealizationError, err = res.Program.RealizationError(plan.Lambda)
		if err != nil {
			res.Release()
			return nil, err
		}
	}
	recordRun(res, sp)
	return res, nil
}

// ProcessColor runs HEBS on a color image through the engine: the
// operating point is decided on the pooled Rec. 601 luma plane and Λ
// is applied identically to R, G and B. Call ColorResult.Release to
// recycle the pooled luma and color buffers.
func (e *Engine) ProcessColor(ctx context.Context, img *rgb.Image, opts Options) (*ColorResult, error) {
	if img == nil {
		return nil, errNilColorImage
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	parent := opts.Trace
	if parent == nil {
		parent = obs.SpanFromContext(ctx)
	}
	sp := parent.Child("core.ProcessColor")
	defer sp.End()
	opts.Trace = sp
	ctx = obs.ContextWithSpan(ctx, sp)

	lumaSpan := sp.Child("stage.luma")
	//hebslint:allow poolpair ownership transfers into Result via e.Process; ColorResult.Release recycles it
	luma := e.getGray(img.W, img.H)
	err := img.LumaInto(luma)
	lumaSpan.End()
	if err != nil {
		e.putGray(luma)
		return nil, err
	}
	res, err := e.Process(ctx, luma, opts)
	if err != nil {
		e.putGray(luma)
		return nil, err
	}
	applySpan := sp.Child("stage.apply_color")
	transformed := e.getRGB(img.W, img.H)
	err = img.ApplyLUTInto(res.Lambda, transformed)
	applySpan.End()
	if err != nil {
		e.putRGB(transformed)
		e.putGray(luma)
		res.Release()
		return nil, err
	}
	mColorFrames.Inc()
	return &ColorResult{
		Result:           res,
		OriginalColor:    img,
		TransformedColor: transformed,
	}, nil
}

// reconstruction returns (and caches) Φ⁻¹∘Φ for the plan's Λ — the
// comparand of the distortion measurement. Plans are shared via the
// plan cache, so the reconstruction is computed once per plan under a
// sync.Once.
func (p *Plan) reconstruction() (*transform.LUT, error) {
	p.reconOnce.Do(func() {
		p.recon, p.reconErr = p.Lambda.Reconstruction()
	})
	return p.recon, p.reconErr
}
