package main

import (
	"math"
	"sort"
	"testing"
	"time"

	"hebs/internal/obs"
	"hebs/internal/rng"
)

// bruteRank is the nearest-rank definition spelled out: the smallest
// sample x with at least a q share of the samples ≤ x.
func bruteRank(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, x := range s {
		n := 0
		for _, y := range s {
			if y <= x {
				n++
			}
		}
		if float64(n) >= q*float64(len(s)) {
			return x
		}
	}
	return s[len(s)-1]
}

func TestNearestRankMatchesBruteForce(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(r.Float64()*50) / 5 // ties included
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
			if got, want := nearestRank(xs, q), bruteRank(xs, q); got != want {
				t.Fatalf("n=%d q=%v: nearestRank %v, brute force %v", n, q, got, want)
			}
		}
	}
}

// A run with fewer than minP90Samples ops reports no metrics; each
// metric is otherwise the median over rounds.
func TestRunNeedsHundredOps(t *testing.T) {
	round := func(ops int, ms float64) *roundReport {
		r := &roundReport{Ops: ops, Frames: ops, Attempted: ops}
		for i := 0; i < ops; i++ {
			r.LatencyNs = append(r.LatencyNs, int64((ms+float64(i%10))*1e6))
		}
		return r
	}
	if _, _, err := endToEndValues([]*roundReport{round(50, 10), round(49, 10)}); err == nil {
		t.Fatal("metrics reported from 99 ops")
	}
	v, per, err := endToEndValues([]*roundReport{round(50, 10), round(50, 30), round(50, 11)})
	if err != nil {
		t.Fatal(err)
	}
	// Round p90s are 18, 38 and 19 ms: the median ignores the slow round.
	if v["op_ms_p90"] != 19 || len(per["op_ms_p90"]) != 3 {
		t.Fatalf("op_ms_p90 = %v over %v, want 19", v["op_ms_p90"], per["op_ms_p90"])
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("spread = %v, want 0.3", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Fatalf("spread of one value = %v, want 0", got)
	}
}

func TestBoundsRelativeAndPoints(t *testing.T) {
	lat := bound{better: "lower", limit: 0.1}
	fps := bound{better: "higher", limit: 0.1}
	pts := bound{better: "lower", limit: 0.1, points: true}
	cases := []struct {
		name     string
		bd       bound
		a, b, sp float64
		want     string
	}{
		{"latency within share", lat, 10, 10.9, 0, "ok"},
		{"latency beyond share", lat, 10, 11.5, 0, "worse"},
		{"latency improved", lat, 10, 8, 0, "ok"},
		{"throughput fell beyond share", fps, 100, 85, 0, "worse"},
		{"throughput rose", fps, 100, 150, 0, "ok"},
		{"points within", pts, 1.0, 1.05, 0, "ok"},
		{"points beyond", pts, 1.0, 1.2, 0, "worse"},
		{"points near zero", pts, 0, 0.05, 0, "ok"},
		{"share from zero", lat, 0, 0.05, 0, "worse"},
		{"spread wider than bound", lat, 10, 15, 0.2, "unresolved"},
	}
	for _, c := range cases {
		if got := c.bd.verdict(c.a, c.b, c.sp); got != c.want {
			t.Errorf("%s: verdict(%v, %v, spread %v) = %s, want %s", c.name, c.a, c.b, c.sp, got, c.want)
		}
	}
}

// Self time subtracts the union of the children's intervals, clipped to
// the parent.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(100, 0)
	ms := time.Millisecond
	span := func(id, parent uint64, name string, start, dur time.Duration) obs.SpanData {
		return obs.SpanData{ID: id, Parent: parent, Name: name, Start: t0.Add(start), Duration: dur}
	}
	spans := []obs.SpanData{
		span(1, 0, "op", 0, 10*ms),
		span(2, 1, "a", 1*ms, 2*ms), // 1-3
		span(3, 1, "a", 2*ms, 3*ms), // 2-5, overlaps the first
		span(4, 1, "b", 7*ms, 1*ms), // 7-8
		span(5, 1, "b", 9*ms, 5*ms), // 9-14, clipped to 9-10
		span(6, 4, "c", 7*ms, 1*ms), // covers all of b #4
	}
	got := selfMsPerOp(spans, 1)
	want := map[string]float64{"op": 4, "a": 5, "b": 5, "c": 1}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", name, got[name], w)
		}
	}
}
