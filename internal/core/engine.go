// The Plan/Apply engine: the pipeline of Figure 4 split into three
// reusable stages with explicit scratch-state ownership.
//
//   - Analyze: histogram extraction + admissible-range selection
//     (step 1, Section 3) — per-image, cheap, cancellable.
//   - Plan: Φ equalization (Eq. 5–7), PLC coarsening (Eq. 9), β and the
//     PLRD driver program (Eq. 10) — pure and image-size-independent:
//     it depends only on the histogram, so identical histograms yield
//     identical plans and the shared plan cache (plancache.go) makes
//     steady-state video planning free.
//   - Apply: the per-pixel Λ remap into caller- or pool-provided
//     buffers — the only stage that touches pixel data.
//
// An Engine owns sync.Pool-backed frame buffers, pooled histograms and
// the plan cache, and threads context.Context through every stage so
// long runs cancel promptly. The legacy Process/ProcessBatch/
// ProcessColor entry points delegate to a default Engine whose plan
// cache is disabled, which keeps their outputs and span trees exactly
// as before the refactor.
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

// validateOptions rejects contradictory Options combinations before
// any pipeline work starts. Kept out of line so the error
// construction on its cold path is not billed to the //hebs:noalloc
// entry points that inline it.
//
//go:noinline
func validateOptions(opts Options) error {
	if opts.DynamicRange != 0 && opts.ExactSearch {
		return &ConflictingOptionsError{DynamicRange: opts.DynamicRange}
	}
	return nil
}

// EngineOptions configures a new Engine.
type EngineOptions struct {
	// PlanCacheSize switches plan caching: a negative value disables it
	// (every PlanFor recomputes, emitting the full equalize/plc span
	// set); any other value joins the process-wide sharded cache,
	// shared across zones, engines and clips with exact-match
	// verification (plancache.go). The cache is sized globally, so the
	// magnitude is ignored.
	PlanCacheSize int

	// Workers bounds intra-frame parallelism: sharded histogram
	// accumulation, sharded Λ application, and the speculative exact
	// range search. 0 or 1 keeps every stage serial (the default), n >
	// 1 allows up to n goroutines per stage, and a negative value
	// selects GOMAXPROCS. Outputs are identical at every setting — the
	// sharded kernels carry an exact-equality guarantee — and small
	// frames stay serial regardless (the kernels gate on a per-shard
	// work floor).
	Workers int
}

// Engine runs the HEBS pipeline with reusable scratch state: pooled
// gray/rgb frame buffers and histograms (so steady-state processing
// allocates ~nothing per frame) and, unless disabled, the shared plan
// cache. An Engine is safe for concurrent use; the zero value is not
// valid — use NewEngine.
type Engine struct {
	// planShared is the process-wide plan cache, nil when caching is
	// disabled (PlanCacheSize < 0).
	planShared *planShards

	// workers is the resolved EngineOptions.Workers: >= 1, where 1
	// means every stage runs serially.
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
}

// NewEngine returns an Engine with the given options.
func NewEngine(opts EngineOptions) *Engine {
	e := &Engine{workers: resolveWorkers(opts.Workers)}
	if opts.PlanCacheSize >= 0 {
		e.planShared = globalPlanCache
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

// Workers reports the engine's resolved intra-frame worker bound (1
// means serial).
func (e *Engine) Workers() int { return e.workers }

// Hot-path sentinel errors. Inlined errors.New calls surface as heap
// allocations at the call site under the hebsvet escape-analysis gate,
// so every error an annotated function can return on its guard paths
// is constructed once here.
var (
	errNilImage            = errors.New("core: nil image")
	errNilColorImage       = errors.New("core: nil color image")
	errApplyNilPlan        = errors.New("core: Apply with nil plan")
	errApplyColorNilPlan   = errors.New("core: ApplyColor with nil plan")
	errAnalyzeApplyNilHist = errors.New("core: AnalyzeApply with nil histogram")
	errFusedApplyNilHist   = errors.New("core: FusedApply with nil histogram")
)

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

// DefaultEngine returns the process-wide Engine backing the legacy
// Process/ProcessBatch/ProcessColor wrappers. Its plan cache is
// disabled so every legacy run recomputes (and traces) the full
// equalize/plc stage set exactly as before the engine refactor;
// buffer pools are still active but only help callers that Release.
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

// ReleaseImage returns a buffer obtained from Apply (or any
// engine-produced image the caller is done with) to the engine pool.
// The image must not be used after release.
func (e *Engine) ReleaseImage(img *gray.Image) { e.putGray(img) }

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

// Analysis is the output of the Analyze stage: the frame's histogram
// (pool-owned — call Release when done) and the chosen operating
// point of step 1.
type Analysis struct {
	// Histogram is the 256-bin marginal distribution of the frame.
	Histogram *histogram.Histogram
	// Range is the admissible dynamic range R.
	Range int
	// PredictedDistortion is the step-1 promise (0 in direct
	// DynamicRange mode).
	PredictedDistortion float64

	eng *Engine
}

// Release returns the pooled histogram to the engine. The Analysis
// must not be used afterwards.
func (a *Analysis) Release() {
	if a == nil || a.eng == nil {
		return
	}
	eng := a.eng
	a.eng = nil
	if a.Histogram != nil {
		eng.putHist(a.Histogram)
		a.Histogram = nil
	}
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
// buffer: numerically identical, allocation-free once warm. shards
// bounds the remap's intra-frame parallelism (1 = serial; candidate
// evaluations already running on pool workers pass 1).
func (e *Engine) rangeReductionDistortion(img *gray.Image, r int, metric chart.Metric, scratch *gray.Image, shards int) (float64, error) {
	recon, err := e.reconForRange(r)
	if err != nil {
		return 0, err
	}
	if metric == nil {
		metric = chart.UQIMetric
	}
	if err := recon.ApplyIntoShards(img, scratch, shards); err != nil {
		return 0, err
	}
	return metric(img, scratch)
}

// minRangeExact is chart.MinRangeExact plus the follow-up predicted
// distortion measurement, run on pooled scratch state: the smallest
// dynamic range in [2, 255] whose measured linear range-reduction
// distortion on this image does not exceed the budget. With engine
// workers and a frame large enough to amortize the fan-out it
// delegates to the speculative parallel search, which probes the
// identical candidate sequence. scratch (img's geometry) is the probe
// buffer; nil draws one from the engine pool. The zoned walk passes
// each zone slot's persistent buffer so per-zone searches stop cycling
// the pool between zone and frame geometries.
func (e *Engine) minRangeExact(ctx context.Context, img *gray.Image, maxDistortion float64, metric chart.Metric, scratch *gray.Image) (r int, predicted float64, err error) {
	if e.workers > 1 && len(img.Pix) >= minSearchPixels {
		return e.minRangeExactSpec(ctx, img, maxDistortion, metric)
	}
	if scratch == nil {
		scratch = e.getGray(img.W, img.H)
		defer e.putGray(scratch)
	}
	lo, hi := 2, transform.Levels-1
	for lo < hi {
		mid := (lo + hi) / 2
		d, err := e.rangeReductionDistortion(img, mid, metric, scratch, e.workers)
		if err != nil {
			return 0, 0, err
		}
		if d <= maxDistortion {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	predicted, err = e.rangeReductionDistortion(img, lo, metric, scratch, e.workers)
	if err != nil {
		return 0, 0, err
	}
	return lo, predicted, nil
}

// selectRange is step 1 (D_max → R) through the engine: identical
// decisions to the package-level selectRange, with the ExactSearch
// path run against the per-range reconstruction cache and the probe
// buffer scratch (nil = pooled; see minRangeExact).
func (e *Engine) selectRange(ctx context.Context, img *gray.Image, opts Options, scratch *gray.Image) (r int, predicted float64, err error) {
	if opts.ExactSearch && opts.DynamicRange == 0 && opts.MaxDistortionPercent > 0 {
		return e.minRangeExact(ctx, img, opts.MaxDistortionPercent, opts.Metric, scratch)
	}
	return selectRange(img, opts)
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
	sp, rsDone := stage(obs.SpanFromContext(ctx), stageRangeSelect)
	r, predicted, err = e.selectRange(obs.ContextWithSpan(ctx, sp), img, opts, nil)
	rsDone.end(err)
	return r, predicted, err
}

// analyzeStages runs range selection and histogram extraction as
// children of sp, returning a pool-owned histogram.
func (e *Engine) analyzeStages(ctx context.Context, sp *obs.Span, img *gray.Image, opts Options) (r int, predicted float64, h *histogram.Histogram, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, nil, err
	}
	_, rsDone := stage(sp, stageRangeSelect)
	r, predicted, err = e.selectRange(ctx, img, opts, nil)
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
		return 0, 0, nil, err
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, nil, err
	}
	_, histDone := stage(sp, stageHistogram)
	h = e.getHist()
	histogram.OfIntoShards(img, h, e.workers)
	histDone.end(nil)
	return r, predicted, h, nil
}

// Analyze runs the Analyze stage alone: histogram extraction plus the
// D_max → R range selection of step 1. Release the returned Analysis
// when done with its histogram.
func (e *Engine) Analyze(ctx context.Context, img *gray.Image, opts Options) (*Analysis, error) {
	if img == nil {
		return nil, errNilImage
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	sp, ctx := obs.StartSpanCtx(ctx, "engine.analyze")
	defer sp.End()
	r, predicted, h, err := e.analyzeStages(ctx, sp, img, opts)
	if err != nil {
		return nil, err
	}
	return &Analysis{Histogram: h, Range: r, PredictedDistortion: predicted, eng: e}, nil
}

// planFor computes (or retrieves from the plan cache) the Plan for a
// histogram at range r, with stage spans as children of parent.
func (e *Engine) planFor(ctx context.Context, parent *obs.Span, h *histogram.Histogram, r, segments int, drv *driver.Config, eq Equalizer, clipFactor float64) (plan *Plan, cached bool, err error) {
	if segments <= 0 {
		segments = driver.DefaultConfig.Sources
	}
	var hash uint64
	clipBits := math.Float64bits(clipFactor)
	if e.planShared != nil {
		hash = planHash(h, r, segments, eq, clipBits)
		if plan := e.planShared.lookup(hash, h, r, segments, drv, eq, clipBits); plan != nil {
			mPlanCacheHits.Inc()
			parent.SetBool("plan_cached", true)
			return plan, true, nil
		}
		mPlanCacheMisses.Inc()
	}
	plan, err = planFromHistogramCtx(ctx, parent, h, r, segments, drv, eq, clipFactor)
	if err != nil {
		return nil, false, err
	}
	if e.planShared != nil {
		e.planShared.store(hash, h, r, segments, drv, eq, clipBits, plan)
	}
	return plan, false, nil
}

// PlanFor runs the Plan stage alone: histogram → Φ → Λ → β → PLRD
// program, served from the plan cache when the histogram and
// operating point match a recent solve. Plans are immutable and may
// be shared; they need no release.
func (e *Engine) PlanFor(ctx context.Context, h *histogram.Histogram, r int, opts Options) (*Plan, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	sp, ctx := obs.StartSpanCtx(ctx, "engine.plan")
	defer sp.End()
	segments := opts.Segments
	if segments < 0 {
		return nil, segmentBudgetError(segments)
	}
	plan, _, err := e.planFor(ctx, sp, h, r, segments, opts.Driver, opts.Equalizer, opts.ClipFactor)
	return plan, err
}

// Apply runs the Apply stage alone: Λ remapped over img into a pooled
// frame buffer. Return the buffer with ReleaseImage when done.
//
//hebs:noalloc
func (e *Engine) Apply(ctx context.Context, plan *Plan, img *gray.Image) (*gray.Image, error) {
	if plan == nil || plan.Lambda == nil {
		return nil, errApplyNilPlan
	}
	if img == nil {
		return nil, errNilImage
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, _ := obs.StartSpanCtx(ctx, "engine.apply")
	defer sp.End()
	out := e.getGray(img.W, img.H)
	if err := plan.Lambda.ApplyIntoShards(img, out, e.workers); err != nil {
		e.putGray(out)
		return nil, err
	}
	return out, nil
}

// ApplyColor is Apply for a color frame: Λ drives all three channels
// through the shared source-driver ladder. Release the returned frame
// with ReleaseColorImage.
//
//hebs:noalloc
func (e *Engine) ApplyColor(ctx context.Context, plan *Plan, img *rgb.Image) (*rgb.Image, error) {
	if plan == nil || plan.Lambda == nil {
		return nil, errApplyColorNilPlan
	}
	if img == nil {
		return nil, errNilColorImage
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, _ := obs.StartSpanCtx(ctx, "engine.apply")
	defer sp.End()
	out := e.getRGB(img.W, img.H)
	if err := img.ApplyLUTIntoShards(plan.Lambda, out, e.workers); err != nil {
		e.putRGB(out)
		return nil, err
	}
	return out, nil
}

// ReleaseColorImage returns a buffer obtained from ApplyColor to the
// engine pool.
func (e *Engine) ReleaseColorImage(img *rgb.Image) { e.putRGB(img) }

// transformDistortion is chart.TransformDistortion evaluated through
// the engine's pooled buffers and the plan's cached reconstruction
// LUT: numerically identical (integer pixel remap + exact integral
// images), allocation-free in steady state.
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
	if err := recon.ApplyIntoShards(img, displayed, e.workers); err != nil {
		return 0, err
	}
	return metric(img, displayed)
}

// Process runs the full HEBS pipeline on an image: Analyze → Plan →
// Apply plus the distortion and power measurements, with per-stage
// cancellation via ctx and the transformed frame drawn from the
// engine pool (call Result.Release to recycle it).
func (e *Engine) Process(ctx context.Context, img *gray.Image, opts Options) (*Result, error) {
	if img == nil {
		return nil, errNilImage
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	segments := opts.Segments
	if segments == 0 {
		segments = driver.DefaultConfig.Sources
	}
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
	r, predicted, h, err := e.analyzeStages(ctx, sp, img, opts)
	if err != nil {
		return nil, err
	}
	defer e.putHist(h)
	return e.processPlanned(ctx, sp, img, h, r, predicted, segments, sub, opts, false)
}

// AnalyzeApply is the fused fast path of the video scheduler: the full
// Plan/Apply/measure pipeline run from a caller-supplied histogram at
// an already-resolved dynamic range, skipping the per-frame histogram
// extraction pass (the scheduler's FrameDelta maintains h
// incrementally) and applying Λ through the word-packed kernel in a
// single traversal. Whenever h equals histogram.Of(img), the Result is
// byte-identical to Process with opts.DynamicRange = r (the histogram
// and the packed apply both carry exact-equality guarantees);
// PredictedDistortion is 0, as in every direct-range run. h stays
// caller-owned.
//
//hebs:noalloc
func (e *Engine) AnalyzeApply(ctx context.Context, img *gray.Image, h *histogram.Histogram, r int, opts Options) (*Result, error) {
	if img == nil {
		return nil, errNilImage
	}
	if h == nil {
		return nil, errAnalyzeApplyNilHist
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	segments := opts.Segments
	if segments == 0 {
		segments = driver.DefaultConfig.Sources
	}
	if segments < 1 {
		return nil, segmentBudgetError(segments)
	}
	sub := power.DefaultSubsystem
	if opts.Subsystem != nil {
		sub = *opts.Subsystem
	}
	parent := opts.Trace
	if parent == nil {
		//hebs:noalloc-allow zero-size spanCtxKey boxing: interface holds zerobase, no runtime allocation
		parent = obs.SpanFromContext(ctx)
	}
	sp := parent.Child("core.AnalyzeApply")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.processPlanned(ctx, sp, img, h, r, 0, segments, sub, opts, true)
}

// FusedApply is the scheduler's steady-state path for a frame whose
// measurements are memoized: Plan from the (incrementally maintained)
// histogram — a plan-cache hit in steady state — then the single
// word-packed Λ traversal into a pooled frame. No distortion or power
// measurement runs; the caller reuses the previous identical frame's
// numbers.
// Return the frame with ReleaseImage; planCached reports whether the
// plan came from the plan cache.
//
//hebs:noalloc
func (e *Engine) FusedApply(ctx context.Context, img *gray.Image, h *histogram.Histogram, r int, opts Options) (out *gray.Image, planCached bool, err error) {
	if img == nil {
		return nil, false, errNilImage
	}
	if h == nil {
		return nil, false, errFusedApplyNilHist
	}
	if err := validateOptions(opts); err != nil {
		return nil, false, err
	}
	parent := opts.Trace
	if parent == nil {
		//hebs:noalloc-allow zero-size spanCtxKey boxing: interface holds zerobase, no runtime allocation
		parent = obs.SpanFromContext(ctx)
	}
	sp := parent.Child("core.FusedApply")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	plan, planCached, err := e.planFor(ctx, sp, h, r, opts.Segments,
		opts.Driver, opts.Equalizer, opts.ClipFactor)
	if err != nil {
		return nil, false, err
	}
	_, applyDone := stage(sp, stageApply)
	out = e.getGray(img.W, img.H)
	err = plan.Lambda.ApplyIntoPacked(img, out)
	applyDone.end(err)
	if err != nil {
		e.putGray(out)
		return nil, false, err
	}
	return out, planCached, nil
}

// processPlanned is the shared tail of Process and AnalyzeApply: Plan
// (cache-served), Apply (sharded or packed), then the distortion/power
// measurements and run metrics. h must describe img exactly.
func (e *Engine) processPlanned(ctx context.Context, sp *obs.Span, img *gray.Image, h *histogram.Histogram, r int, predicted float64, segments int, sub power.Subsystem, opts Options, packed bool) (*Result, error) {
	// Steps 2+3: histogram -> Φ -> Λ (+ the PLRD program) — the Plan
	// stage, the part the LCD controller computes from its histogram
	// estimator alone.
	plan, planCached, err := e.planFor(ctx, sp, h, r, segments,
		opts.Driver, opts.Equalizer, opts.ClipFactor)
	if err != nil {
		return nil, err
	}

	// Step 4: apply Λ; measure what the dimmed display delivers.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, applyDone := stage(sp, stageApply)
	transformed := e.getGray(img.W, img.H)
	if packed {
		err = plan.Lambda.ApplyIntoPacked(img, transformed)
	} else {
		err = plan.Lambda.ApplyIntoShards(img, transformed, e.workers)
	}
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
	err = img.ApplyLUTIntoShards(res.Lambda, transformed, e.workers)
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
