// Pipeline instrumentation: every run of Process feeds the obs metrics
// registry (frame counters, per-stage latency histograms, operating
// point distributions) and, when a span sink is installed, emits a span
// tree with one child per Figure 4 pipeline stage.
package core

import (
	"time"

	"hebs/internal/obs"
)

// Pipeline stage names, used both as span names ("stage.<name>") and
// metric name components ("core.stage.<name>.seconds").
const (
	stageRangeSelect = "range_select" // step 1: D_max → R (Section 3)
	stageHistogram   = "histogram"    // histogram extraction
	stageEqualize    = "equalize"     // step 2: GHE Φ (Eq. 5–7)
	stagePLC         = "plc"          // step 3: PLC DP Λ (Eq. 9)
	stageDriver      = "driver"       // PLRD programming (Eq. 10)
	stageApply       = "apply"        // step 4: Λ(F) into the frame buffer
	stageDistortion  = "distortion"   // achieved-distortion measurement
	stagePower       = "power"        // power model evaluation
)

var pipelineStages = []string{
	stageRangeSelect, stageHistogram, stageEqualize, stagePLC,
	stageDriver, stageApply, stageDistortion, stagePower,
}

var (
	mFramesTotal  = obs.NewCounter("core.frames_total")
	mColorFrames  = obs.NewCounter("core.color_frames_total")
	mCurveLookups = obs.NewCounter("core.default_curve_lookups_total")
	mCurveBuilds  = obs.NewCounter("core.default_curve_builds_total")

	// Plan-cache behaviour across all engines with caching enabled:
	// hits are frames whose Plan was reused byte-identically from a
	// matching recent histogram.
	mPlanCacheHits      = obs.NewCounter("core.plan_cache_hits_total")
	mPlanCacheMisses    = obs.NewCounter("core.plan_cache_misses_total")
	mPlanCacheEvictions = obs.NewCounter("core.plan_cache.evictions_total")

	// Occupancy and capacity of the shared plan cache.
	gPlanCacheEntries  = obs.NewGauge("core.plan_cache.entries")
	gPlanCacheCapacity = obs.NewGauge("core.plan_cache.capacity")

	// Buffer-pool traffic across all engines — PoolStats as live
	// registry counters so a result-leaking workload shows up at
	// /metrics as gets_total pulling away from puts_total.
	mPoolGets   = obs.NewCounter("core.pool.gets_total")
	mPoolPuts   = obs.NewCounter("core.pool.puts_total")
	mPoolMisses = obs.NewCounter("core.pool.misses_total")

	// Operating-point distributions: the per-image quantities the
	// comparative-HE literature evaluates, as first-class telemetry.
	mRangeDist      = obs.NewHistogram("core.range", obs.LinearBuckets(0, 32, 8))
	mBetaDist       = obs.NewHistogram("core.beta", obs.LinearBuckets(0, 0.125, 8))
	mSegmentsDist   = obs.NewHistogram("core.segments", []float64{2, 4, 8, 16, 32, 64})
	mDistortionDist = obs.NewHistogram("core.achieved_distortion_pct", obs.LinearBuckets(0, 5, 10))
	mSavingDist     = obs.NewHistogram("core.power_saving_pct", obs.LinearBuckets(0, 10, 10))

	// Zoned-pipeline telemetry: run counter, last run's zone count and
	// applied-β spread (the local-dimming win lives in the spread), the
	// smoothing sweep distribution and the zoned power outcome.
	mZonedRuns = obs.NewCounter("core.zoned.runs_total")
	// Zoned fast-path telemetry: per-zone analysis outcomes (a skip is
	// a byte-identical zone that kept its histogram and range, a rebin
	// a changed zone that recomputed them), phase-C measurement replays,
	// and whole-frame distortion replays (every zone replayed).
	mZonedZoneSkips    = obs.NewCounter("core.zoned.zone_skips_total")
	mZonedZoneRebins   = obs.NewCounter("core.zoned.zone_rebins_total")
	mZonedZoneReplays  = obs.NewCounter("core.zoned.zone_replays_total")
	mZonedFrameReplays = obs.NewCounter("core.zoned.frame_replays_total")
	mZonedSmoothDist   = obs.NewHistogram("core.zoned.smooth_sweeps", obs.LinearBuckets(0, 1, 8))
	gZonedZones        = obs.NewGauge("core.zoned.zones")
	gZonedBetaSpread   = obs.NewGauge("core.zoned.beta_spread")
	gZonedPowerAfter   = obs.NewGauge("core.zoned.power_after_w")

	// Last-run operating point, for quick inspection.
	gLastRange      = obs.NewGauge("core.last_range")
	gLastBeta       = obs.NewGauge("core.last_beta")
	gLastPredicted  = obs.NewGauge("core.last_predicted_distortion_pct")
	gLastDistortion = obs.NewGauge("core.last_achieved_distortion_pct")
	gLastSaving     = obs.NewGauge("core.last_power_saving_pct")

	stageLatency = map[string]*obs.Histogram{}
	stageErrors  = map[string]*obs.Counter{}
	// stageSpanNames pre-joins "stage." + name: the stage helper runs
	// per frame and must not concatenate on every call.
	stageSpanNames = map[string]string{}
)

func init() {
	for _, s := range pipelineStages {
		stageLatency[s] = obs.NewHistogram("core.stage."+s+".seconds", obs.LatencyBuckets())
		stageErrors[s] = obs.NewCounter("core.stage." + s + ".errors_total")
		stageSpanNames[s] = "stage." + s
	}
}

// stageDone closes one pipeline stage: it ends the span, records the
// latency and counts an error. It is a value type (not a closure) so
// the per-frame hot path allocates nothing when tracing is disabled.
type stageDone struct {
	sp    *obs.Span
	name  string
	start time.Time
}

func (d stageDone) end(err error) {
	d.sp.End()
	stageLatency[d.name].ObserveDuration(time.Since(d.start))
	if err != nil {
		stageErrors[d.name].Inc()
	}
}

// stage opens one pipeline stage: a child span under parent (free when
// tracing is disabled) plus the always-on latency clock.
func stage(parent *obs.Span, name string) (*obs.Span, stageDone) {
	sp := parent.Child(stageSpanNames[name])
	return sp, stageDone{sp: sp, name: name, start: time.Now()}
}

// recordRun publishes a completed run's operating point to the metrics
// registry and annotates the run's span.
func recordRun(res *Result, sp *obs.Span) {
	st := res.Stats()
	mFramesTotal.Inc()
	mRangeDist.Observe(float64(st.Range))
	mBetaDist.Observe(st.Beta)
	mSegmentsDist.Observe(float64(st.Segments))
	mDistortionDist.Observe(st.AchievedDistortion)
	mSavingDist.Observe(st.PowerSavingPercent)
	gLastRange.Set(float64(st.Range))
	gLastBeta.Set(st.Beta)
	gLastPredicted.Set(st.PredictedDistortion)
	gLastDistortion.Set(st.AchievedDistortion)
	gLastSaving.Set(st.PowerSavingPercent)
	sp.SetInt("range", st.Range)
	sp.SetFloat("beta", st.Beta)
	sp.SetInt("segments", st.Segments)
	sp.SetFloat("achieved_distortion_pct", st.AchievedDistortion)
	sp.SetFloat("power_saving_pct", st.PowerSavingPercent)
}
