package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// report is the JSON document -out writes.
type report struct {
	Schema    int                        `json:"schema"`
	Seed      uint64                     `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Env       envInfo                    `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// envInfo records where a report was measured.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// reportSchema versions the report layout.
const reportSchema = 1

// loadReports reads a comma-separated list of report files.
func loadReports(list string) ([]*report, error) {
	var out []*report
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != reportSchema {
			return nil, fmt.Errorf("%s: schema %d, want %d", path, r.Schema, reportSchema)
		}
		out = append(out, &r)
	}
	return out, nil
}

// side pools one side of a comparison, one or more reports of the same
// commit: the median of the reports' values and the widest spread, the
// reports' own or the one between them.
func side(reports []*report, wl, metric string, points bool) (value, sp float64, ok bool) {
	var vals []float64
	for _, r := range reports {
		res := r.Workloads[wl]
		if res == nil {
			return 0, 0, false
		}
		mv, found := res.Metrics[metric]
		if !found {
			return 0, 0, false
		}
		vals = append(vals, mv.Value)
		sp = max(sp, mv.Spread)
	}
	between := spread(vals)
	if points {
		between = quartileDistance(vals)
	}
	return median(vals), max(sp, between), true
}

// digests lists the distinct output digests of a workload across
// reports.
func digests(reports []*report, wl string) []string {
	var out []string
	for _, r := range reports {
		if res := r.Workloads[wl]; res != nil && !slices.Contains(out, res.Digest) {
			out = append(out, res.Digest)
		}
	}
	return out
}

// compareReports applies the bounds to every (workload, end-to-end
// metric) pair of baseline a and candidate b, printing ok, worse or
// unresolved for each, and flags any digest difference. It returns the
// number of pairs that got worse plus the workloads whose digests
// differ.
func compareReports(bounds map[string]bound, a, b []*report, w io.Writer) int {
	var names []string
	for name := range a[0].Workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	bad := 0
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "worse by", "verdict")
	for _, wl := range names {
		for _, d := range endToEnd {
			bd, ok := bounds[d.name]
			if !ok {
				continue
			}
			va, sa, okA := side(a, wl, d.name, bd.points)
			vb, sb, okB := side(b, wl, d.name, bd.points)
			if !okA || !okB {
				fmt.Fprintf(w, "%-14s %-16s missing on one side\n", wl, d.name)
				bad++
				continue
			}
			v := bd.verdict(va, vb, max(sa, sb))
			if v == "worse" {
				bad++
			}
			change := fmt.Sprintf("%+.2f%%", 100*bd.worsening(va, vb))
			if bd.points {
				change = fmt.Sprintf("%+.3fpt", bd.worsening(va, vb))
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %9s  %s\n", wl, d.name, va, vb, change, v)
		}
		da, db := digests(a, wl), digests(b, wl)
		if len(da) != 1 || !slices.Equal(da, db) {
			fmt.Fprintf(w, "%-14s digest differs: A %v, B %v\n", wl, da, db)
			bad++
		}
	}
	return bad
}
