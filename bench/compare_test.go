package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// reportWith builds a one-workload report holding the given metrics.
func reportWith(digest string, vals map[string]metricValue) *report {
	return &report{Schema: reportSchema, Workloads: map[string]*workloadResult{
		"photo": {Digest: digest, Metrics: vals},
	}}
}

func TestCompareVerdicts(t *testing.T) {
	bounds := map[string]bound{
		"op_ms_p50":       {better: "lower", limit: 0.1},
		"frames_per_s":    {better: "higher", limit: 0.1},
		"saving_pct":      {better: "higher", limit: 0.05},
		"over_budget_pct": {better: "lower", limit: 0.1, points: true},
	}
	a := reportWith("d1", map[string]metricValue{
		"op_ms_p50":       {Value: 10, Spread: 0.02},
		"frames_per_s":    {Value: 100, Spread: 0.3},
		"saving_pct":      {Value: 50, Spread: 0},
		"over_budget_pct": {Value: 1, Spread: 0},
	})
	b := reportWith("d2", map[string]metricValue{
		"op_ms_p50":       {Value: 12, Spread: 0.02},
		"frames_per_s":    {Value: 95, Spread: 0.01},
		"saving_pct":      {Value: 49, Spread: 0},
		"over_budget_pct": {Value: 1.05, Spread: 0},
	})
	var out bytes.Buffer
	bad := compareReports(bounds, []*report{a}, []*report{b}, &out)
	got := out.String()
	for _, want := range []string{
		"op_ms_p50", "worse",
		"frames_per_s", "unresolved",
		"digest differs",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	lines := map[string]string{}
	for _, l := range strings.Split(got, "\n") {
		if f := strings.Fields(l); len(f) > 2 && f[0] == "photo" {
			lines[f[1]] = f[len(f)-1]
		}
	}
	want := map[string]string{"op_ms_p50": "worse", "frames_per_s": "unresolved", "saving_pct": "ok", "over_budget_pct": "ok"}
	for m, v := range want {
		if lines[m] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", m, lines[m], v, got)
		}
	}
	if bad != 2 {
		t.Errorf("bad = %d, want 2 (one worse metric, one digest difference)", bad)
	}
}

// Several reports per side pool to their median, and their spread
// includes the spread between them.
func TestCompareSidesPool(t *testing.T) {
	bounds := map[string]bound{"op_ms_p50": {better: "lower", limit: 0.1}}
	side := func(vals ...float64) []*report {
		var rs []*report
		for _, v := range vals {
			rs = append(rs, reportWith("d", map[string]metricValue{"op_ms_p50": {Value: v}}))
		}
		return rs
	}
	var out bytes.Buffer
	if bad := compareReports(bounds, side(10, 10.2, 10.1), side(10.3, 10.1, 10.2), &out); bad != 0 {
		t.Fatalf("same-commit sides compared bad:\n%s", out.String())
	}
	out.Reset()
	compareReports(bounds, side(10, 13, 10.1), side(10, 10, 10), &out)
	if !strings.Contains(out.String(), "unresolved") {
		t.Fatalf("a wide side is not unresolved:\n%s", out.String())
	}
}

// BENCHMARK.json declares exactly the benchmark's workloads, the
// end-to-end metrics that never read 0, and every per-layer metric,
// with the units and directions the benchmark prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	var declared []metricDef
	for _, d := range endToEnd {
		if d.declared() {
			declared = append(declared, d)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: declared %+v, defined %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, declared)
	check("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// The result line holds exactly the four keys, and the declared
// metrics with value and unit only.
func TestResultLine(t *testing.T) {
	res := &workloadResult{Correct: true, Attempted: 5, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{Value: 1.5, Unit: d.unit, Spread: 0.01}
	}
	rep := &report{Workloads: map[string]*workloadResult{"photo": res}}
	var out bytes.Buffer
	printReport(&out, rep, []*workload{mustWorkload(t, "photo")})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		m, ok := metrics[d.name]
		if ok != d.declared() {
			t.Errorf("%s in result line: %v, declared: %v", d.name, ok, d.declared())
		}
		if ok && (len(m) != 2 || m["unit"] != d.unit) {
			t.Errorf("%s: %v", d.name, m)
		}
	}
}
