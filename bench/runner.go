package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"time"

	"hebs/internal/obs"
)

// oracleEvery: every oracleEvery-th timed op of a run, counted across
// its rounds, is recomputed through the reference path after the timed
// phase, and so is every warm-up op of the first round. (Later rounds
// replay the same warm-up inputs; the digest check across rounds covers
// them.)
const oracleEvery = 25

// roundReport is what one process measures over one round of a
// workload.
type roundReport struct {
	Ops        int     `json:"ops"`
	Frames     int     `json:"frames"`
	LatencyNs  []int64 `json:"latency_ns"`
	SetupNs    int64   `json:"setup_ns"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	HeapPeak   uint64  `json:"heap_peak_bytes"`
	// SavingSum, OverBudget: per-frame power saving summed, and frames
	// whose achieved distortion exceeded the budget.
	SavingSum  float64 `json:"saving_sum"`
	OverBudget int     `json:"over_budget_frames"`
	// FlickerSum sums each clip's mean |Δβ| over Clips clips.
	FlickerSum float64  `json:"flicker_sum"`
	Clips      int      `json:"clips"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	Digest     string   `json:"digest"`
	// Traced rounds only: the per-layer metrics and the self time of
	// each span name, in ms per op.
	Layers      map[string]float64 `json:"layers,omitempty"`
	SelfMsPerOp map[string]float64 `json:"self_ms_per_op,omitempty"`
}

// account adds one successful op's quality numbers to the report.
func (rep *roundReport) account(rec record, budget float64, still bool) {
	if still {
		rep.SavingSum += rec.stats.PowerSavingPercent
		if rec.stats.AchievedDistortion > budget {
			rep.OverBudget++
		}
		return
	}
	rep.Clips++
	rep.FlickerSum += rec.flicker
	for _, f := range rec.frames {
		rep.SavingSum += f.SavingPercent
		if f.Distortion > budget {
			rep.OverBudget++
		}
	}
}

// runRound is one child process's work in round number round: generate
// the round's inputs, set up and warm the engine, run the timed ops,
// then check a sample of them against the reference path. traced
// installs a span collector and adds the per-layer metrics; traceOut,
// when set, receives the spans.
func runRound(ctx context.Context, w *workload, seed uint64, round int, traced bool, traceOut string) (*roundReport, error) {
	timed, err := w.generate(seed, streamTimed, w.roundOps)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	warm, err := w.generate(seed, streamWarmup, warmupOps)
	if err != nil {
		return nil, fmt.Errorf("%s: generating warm-up inputs: %w", w.name, err)
	}
	runtime.GC()
	var col *obs.Collector
	if traced {
		col = obs.NewCollector()
		obs.SetSink(col)
		defer obs.SetSink(nil)
	}
	rep := &roundReport{}
	oracled := func(i int) bool { return (round*len(timed)+i)%oracleEvery == 0 }
	// problems[i] holds warm-up op i (i < warmupOps), then timed ops.
	problems := make([][]string, len(warm)+len(timed))

	// Set-up: engine construction plus the warm-up ops.
	start := time.Now()
	sys, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	setup := time.Since(start)
	still := sys.pol == nil
	warmRecs := make([]record, len(warm))
	for i := range warm {
		t0 := time.Now()
		out, err := sys.call(ctx, &warm[i], nil)
		setup += time.Since(t0)
		if err != nil {
			problems[i] = []string{"error: " + err.Error()}
			continue
		}
		warmRecs[i] = toRecord(out)
		problems[i] = checkRecord(warmRecs[i], sys.budget(&warm[i]), sys.pol)
	}
	rep.SetupNs = setup.Nanoseconds()

	digest := fnv.New64a()
	kept := make(map[int]record)
	var before obs.Snapshot
	if traced {
		before = obs.Default().Snapshot()
	}
	var m0, m1 runtime.MemStats
	for i := range timed {
		o := &timed[i]
		runtime.ReadMemStats(&m0)
		sp := obs.StartSpan("bench.op")
		t0 := time.Now()
		out, err := sys.call(ctx, o, sp)
		dt := time.Since(t0)
		sp.End()
		runtime.ReadMemStats(&m1)
		rep.LatencyNs = append(rep.LatencyNs, dt.Nanoseconds())
		rep.Mallocs += m1.Mallocs - m0.Mallocs
		rep.AllocBytes += m1.TotalAlloc - m0.TotalAlloc
		rep.HeapPeak = max(rep.HeapPeak, m1.HeapInuse)
		rep.Ops++
		rep.Frames += len(o.frameList())
		if err != nil {
			problems[len(warm)+i] = []string{"error: " + err.Error()}
			continue
		}
		rec := toRecord(out)
		budget := sys.budget(o)
		problems[len(warm)+i] = checkRecord(rec, budget, sys.pol)
		digestRecord(digest, rec)
		rep.account(rec, budget, still)
		if traced || oracled(i) {
			kept[i] = rec
		}
	}
	rep.Digest = fmt.Sprintf("%016x", digest.Sum64())

	if traced {
		spans := col.Spans()
		rep.Layers, err = layerMetrics(ctx, sys, timed, kept, before, obs.Default().Snapshot(), spans, rep)
		if err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
		}
		rep.SelfMsPerOp = selfMsPerOp(spans, rep.Ops)
		if traceOut != "" {
			if err := writeSpans(col, traceOut); err != nil {
				return nil, err
			}
		}
	}

	// Differential oracle.
	for i := range warm {
		if round == 0 && problems[i] == nil {
			problems[i] = oracle(ctx, sys, &warm[i], warmRecs[i])
		}
	}
	for i := range timed {
		if rec, ok := kept[i]; ok && oracled(i) {
			problems[len(warm)+i] = append(problems[len(warm)+i], oracle(ctx, sys, &timed[i], rec)...)
		}
	}

	var t tally
	for i, p := range problems {
		label := fmt.Sprintf("warm-up op %d", i)
		if i >= len(warm) {
			label = fmt.Sprintf("op %d", i-len(warm))
		}
		t.add(label, p)
	}
	rep.Attempted, rep.Failed, rep.Failures = t.attempted, t.failed, t.msgs
	return rep, nil
}

// oracle recomputes an op through the reference path and returns the
// mismatch, if any.
func oracle(ctx context.Context, sys *system, o *op, got record) []string {
	want, err := sys.reference(ctx, o)
	if err != nil {
		return []string{"oracle error: " + err.Error()}
	}
	if err := sameRecord(got, want); err != nil {
		return []string{err.Error()}
	}
	return nil
}

// writeSpans dumps the collected spans as JSON.
func writeSpans(col *obs.Collector, path string) error {
	var buf bytes.Buffer
	if err := col.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// spawnRound runs one round in a fresh child process: the benchmark
// binary re-executing itself, so no process-wide state (the shared
// plan cache, the buffer pools, the heap) carries over between rounds.
func spawnRound(ctx context.Context, w *workload, seed uint64, round int, traced bool, traceOut string) (*roundReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(seed), "-round", fmt.Sprint(round)}
	if traced {
		args = append(args, "-traced", "-trace-out", traceOut)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s round: %w", w.name, err)
	}
	var rep roundReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("%s round: %w", w.name, err)
	}
	return &rep, nil
}

// minRounds is the fewest rounds a workload runs in a measured run, so
// every metric is a median of at least five processes.
const minRounds = 5

// enough reports whether a workload's rounds cover the measuring time
// and the samples p90 needs.
func enough(rounds []*roundReport, seconds int) bool {
	var ops int
	var ns int64
	for _, r := range rounds {
		ops += r.Ops
		for _, v := range r.LatencyNs {
			ns += v
		}
	}
	return len(rounds) >= minRounds && ops >= minP90Samples && ns >= int64(seconds)*int64(time.Second)
}

// measure runs rounds of every given workload, one child at a time and
// the workloads interleaved, until each has enough. A round is not
// started when the previous round of the same workload suggests it
// would not end before the context's deadline.
func measure(ctx context.Context, ws []*workload, seed uint64, seconds int) (map[string][]*roundReport, error) {
	rounds := make(map[string][]*roundReport)
	lastWall := make(map[string]time.Duration)
	deadline, hasDeadline := ctx.Deadline()
	for {
		progressed := false
		for _, w := range ws {
			if enough(rounds[w.name], seconds) {
				continue
			}
			if hasDeadline && time.Until(deadline) < 2*lastWall[w.name] {
				return nil, fmt.Errorf("%s: out of time after %d rounds", w.name, len(rounds[w.name]))
			}
			t0 := time.Now()
			rep, err := spawnRound(ctx, w, seed, len(rounds[w.name]), false, "")
			if err != nil {
				return nil, err
			}
			lastWall[w.name] = time.Since(t0)
			rounds[w.name] = append(rounds[w.name], rep)
			progressed = true
		}
		if !progressed {
			return rounds, nil
		}
	}
}

// metricValue is one metric as reported.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the run-to-run spread across rounds: a share of the
	// value, or points for a metric with a points bound.
	Spread float64 `json:"spread"`
}

// workloadResult is one workload's outcome in a report.
type workloadResult struct {
	Rounds      int                    `json:"rounds"`
	Ops         int                    `json:"ops"`
	Frames      int                    `json:"frames"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Failures    []string               `json:"failures,omitempty"`
	Digest      string                 `json:"digest"`
	Correct     bool                   `json:"correct"`
	Metrics     map[string]metricValue `json:"metrics,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	SelfMsPerOp map[string]float64     `json:"self_ms_per_op,omitempty"`
}

// combine pools the bookkeeping of rounds that replayed the same
// inputs. Their digests must agree; a disagreement is one more failure.
func combine(rounds []*roundReport) *workloadResult {
	res := &workloadResult{Rounds: len(rounds), Digest: rounds[0].Digest}
	for _, r := range rounds {
		res.Ops += r.Ops
		res.Frames += r.Frames
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, f := range r.Failures {
			if len(res.Failures) < maxFailureMsgs {
				res.Failures = append(res.Failures, f)
			}
		}
		if r.Digest != res.Digest {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("round digests differ: %s vs %s", res.Digest, r.Digest))
			res.Digest = "mismatch"
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// endToEndValues computes every end-to-end metric of a workload, and
// each metric's value per round. Every round replays the same inputs,
// so each measures the same quantities; a metric's value is the median
// over rounds, which a slow spell of a shared machine during a few
// rounds does not move. failed_pct alone pools every round's ops. The
// run must hold at least minP90Samples ops, so its p90 rests on at
// least ten ops beyond it.
func endToEndValues(rounds []*roundReport) (map[string]float64, map[string][]float64, error) {
	per := make(map[string][]float64)
	var ops, attempted, failed int
	for _, r := range rounds {
		v, err := roundValues(r)
		if err != nil {
			return nil, nil, err
		}
		for k, x := range v {
			per[k] = append(per[k], x)
		}
		ops += r.Ops
		attempted += r.Attempted
		failed += r.Failed
	}
	if ops < minP90Samples {
		return nil, nil, fmt.Errorf("p90 needs at least %d ops, have %d", minP90Samples, ops)
	}
	v := make(map[string]float64, len(per))
	for k, xs := range per {
		v[k] = median(xs)
	}
	v["failed_pct"] = 100 * float64(failed) / float64(max(attempted, 1))
	return v, per, nil
}

// roundValues computes every end-to-end metric over one round.
func roundValues(r *roundReport) (map[string]float64, error) {
	if r.Ops == 0 || r.Frames == 0 {
		return nil, fmt.Errorf("no ops measured")
	}
	lat := make([]float64, len(r.LatencyNs))
	var totalMs float64
	for i, ns := range r.LatencyNs {
		lat[i] = float64(ns) / 1e6
		totalMs += lat[i]
	}
	frames, ops := float64(r.Frames), float64(r.Ops)
	v := map[string]float64{
		"setup_s":         float64(r.SetupNs) / 1e9,
		"op_ms_p50":       median(lat),
		"op_ms_p90":       nearestRank(lat, 0.9),
		"frames_per_s":    frames / (totalMs / 1e3),
		"saving_pct":      r.SavingSum / frames,
		"over_budget_pct": 100 * float64(r.OverBudget) / frames,
		"flicker_dbeta":   0,
		"failed_pct":      100 * float64(r.Failed) / float64(max(r.Attempted, 1)),
		"allocs_per_op":   float64(r.Mallocs) / ops,
		"alloc_kb_per_op": float64(r.AllocBytes) / 1024 / ops,
		"heap_peak_mb":    float64(r.HeapPeak) / (1 << 20),
	}
	if r.Clips > 0 {
		v["flicker_dbeta"] = r.FlickerSum / float64(r.Clips)
	}
	return v, nil
}

// summarize turns a workload's rounds into its reported result: the
// metric values, each with its spread across rounds.
func summarize(rounds []*roundReport) (*workloadResult, error) {
	res := combine(rounds)
	pooled, per, err := endToEndValues(rounds)
	if err != nil {
		return nil, err
	}
	res.Metrics = make(map[string]metricValue)
	for _, d := range endToEnd {
		sp := spread(per[d.name])
		if d.extra != nil && d.extra.points {
			sp = quartileDistance(per[d.name])
		}
		res.Metrics[d.name] = metricValue{Value: pooled[d.name], Unit: d.unit, Spread: sp}
	}
	return res, nil
}

// tracePairs is the number of untraced and traced rounds the traced
// pass alternates.
const tracePairs = 3

// traceWorkload runs a workload's traced pass: tracePairs untraced and
// tracePairs traced rounds of the same inputs, alternating, each in a
// fresh child. Each per-layer metric is its median over the traced
// rounds; the tracing overhead compares the median op latency of the
// traced rounds with that of the untraced ones. The first traced round
// writes the spans.
func traceWorkload(ctx context.Context, w *workload, seed uint64, traceOut string) (*workloadResult, error) {
	var rounds []*roundReport
	layers := make(map[string][]float64)
	var plainP50, tracedP50 []float64
	for i := 0; i < tracePairs; i++ {
		plain, err := spawnRound(ctx, w, seed, 2*i, false, "")
		if err != nil {
			return nil, err
		}
		out := ""
		if i == 0 {
			out = traceOut
		}
		traced, err := spawnRound(ctx, w, seed, 2*i+1, true, out)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, plain, traced)
		plainP50 = append(plainP50, medianNs(plain.LatencyNs))
		tracedP50 = append(tracedP50, medianNs(traced.LatencyNs))
		for k, v := range traced.Layers {
			layers[k] = append(layers[k], v)
		}
	}
	res := combine(rounds)
	res.SelfMsPerOp = rounds[1].SelfMsPerOp
	res.PerLayer = make(map[string]metricValue)
	for _, d := range perLayer {
		v := 100 * (median(tracedP50)/median(plainP50) - 1)
		if d.name != "trace_overhead_pct" {
			v = median(layers[d.name])
		}
		res.PerLayer[d.name] = metricValue{Value: v, Unit: d.unit, Spread: spread(layers[d.name])}
	}
	return res, nil
}

// medianNs is the median of nanosecond samples.
func medianNs(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return median(xs)
}
