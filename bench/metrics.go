package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric with its unit and the direction that is
// better.
type metricDef struct {
	name, unit, better string
	// extra, when set, marks an end-to-end metric the benchmark reports
	// but BENCHMARK.json does not declare, and holds its bound. Three
	// such metrics read 0 on some workload, where a share bound means
	// nothing; alloc_kb_per_op jumps between runs of one seed (a
	// collection that empties the engine's pools makes the next ops
	// re-allocate whole frames). Declared metrics take their bound from
	// BENCHMARK.json.
	extra *bound
}

// endToEnd lists every end-to-end metric, in report order.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_ms_p50", unit: "ms", better: "lower"},
	{name: "op_ms_p90", unit: "ms", better: "lower"},
	{name: "frames_per_s", unit: "frames/s", better: "higher"},
	{name: "saving_pct", unit: "%", better: "higher"},
	{name: "over_budget_pct", unit: "%", better: "lower", extra: &bound{limit: 0.1, points: true}},
	{name: "flicker_dbeta", unit: "beta", better: "lower", extra: &bound{limit: 0.02}},
	{name: "failed_pct", unit: "%", better: "lower", extra: &bound{limit: 0, points: true}},
	{name: "allocs_per_op", unit: "count", better: "lower"},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower", extra: &bound{limit: 0.25}},
	{name: "heap_peak_mb", unit: "MB", better: "lower"},
}

// Layer probes: each times direct calls into one layer's public
// function and reports the median microseconds per call.
var probeNames = []string{
	"histogram.of", "histogram.delta", "core.range_exact", "equalize.solve",
	"plc.coarsen", "gray.apply_packed", "quality.uqi", "power.saving", "backlight.smooth",
}

// stageNames are the core.stage.<name>.seconds histograms the traced
// pass reads.
var stageNames = []string{"range_select", "histogram", "equalize", "plc", "apply", "distortion", "power"}

// perLayer lists every per-layer metric of the traced pass.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, p := range probeNames {
		defs = append(defs, metricDef{name: p + "_us", unit: "us", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "core.plan_hit_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "core.plan_misses_per_op", unit: "count", better: "lower"},
		metricDef{name: "core.zone_rebin_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "core.zone_replay_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "video.range_reuse_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "video.slew_limited_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "video.fastpath_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "video.tiles_rebinned_per_frame", unit: "count", better: "lower"},
		metricDef{name: "video.cut_snaps_per_op", unit: "count", better: "lower"},
	)
	for _, s := range stageNames {
		defs = append(defs, metricDef{name: "core.stage." + s + ".ms_per_op", unit: "ms", better: "lower"})
	}
	return append(defs,
		metricDef{name: "attributed_pct", unit: "%", better: "higher"},
		metricDef{name: "trace_overhead_pct", unit: "%", better: "lower"},
	)
}()

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// bounds returns the bound of every end-to-end metric: BENCHMARK.json's
// share bounds for the declared metrics, the built-in ones for the rest.
func (s *benchSpec) bounds() map[string]bound {
	out := make(map[string]bound)
	for _, d := range endToEnd {
		if d.extra != nil {
			bd := *d.extra
			bd.better = d.better
			out[d.name] = bd
		}
	}
	for _, m := range s.EndToEnd {
		out[m.Name] = bound{better: m.Better, limit: m.Bound}
	}
	return out
}

// declared reports whether an end-to-end metric appears in
// BENCHMARK.json.
func (d metricDef) declared() bool { return d.extra == nil }
