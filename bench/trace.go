package main

import (
	"context"
	"image"
	"sort"
	"time"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/driver"
	"hebs/internal/equalize"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/obs"
	"hebs/internal/plc"
	"hebs/internal/power"
	"hebs/internal/quality"
	"hebs/internal/transform"
)

// Probe frames: every probeStep-th frame of the traced ops, thinned to
// at most maxProbes and thickened to at least minProbes frames.
const (
	probeStep = 8
	minProbes = 8
	maxProbes = 32
)

// probeFrame is one frame captured from a workload's ops, with the
// operating point the program chose for it.
type probeFrame struct {
	prev, cur *gray.Image
	budget    float64
	r         int
	zone      image.Rectangle
}

// probeFrames picks the probe frames from the traced ops and their
// records (ops whose record is missing failed and are skipped).
func probeFrames(sys *system, ops []op, recs map[int]record) []probeFrame {
	var all []probeFrame
	var prev *gray.Image
	for i := range ops {
		o := &ops[i]
		rec, ok := recs[i]
		for j, f := range o.frameList() {
			if ok && prev != nil {
				r := rec.stats.Range
				if rec.frames != nil {
					r = rec.frames[j].Range
				}
				all = append(all, probeFrame{prev: prev, cur: f, budget: sys.budget(o), r: r, zone: o.zone})
			}
			prev = f
		}
	}
	step := probeStep
	if len(all)/step > maxProbes {
		step = len(all) / maxProbes
	}
	if len(all)/step < minProbes {
		step = max(1, len(all)/minProbes)
	}
	var picked []probeFrame
	for i := step - 1; i < len(all); i += step {
		picked = append(picked, all[i])
	}
	return picked
}

// probeLayers times direct calls into each layer's public function on
// the probe frames, each call under a bench.layer.<name> span, and
// returns the median microseconds per call of each probe.
func probeLayers(ctx context.Context, frames []probeFrame) (map[string]float64, error) {
	eng := core.NewEngine(core.EngineOptions{Workers: 1, PlanCacheSize: -1})
	var fd histogram.FrameDelta
	var h, hd histogram.Histogram
	us := make(map[string][]float64)
	timed := func(name string, fn func() error) error {
		sp := obs.StartSpan("bench.layer." + name)
		defer sp.End()
		t0 := time.Now()
		err := fn()
		us[name] = append(us[name], float64(time.Since(t0).Nanoseconds())/1e3)
		return err
	}
	for _, pf := range frames {
		cur := pf.cur
		if err := timed("histogram.of", func() error { histogram.OfInto(cur, &h); return nil }); err != nil {
			return nil, err
		}
		if !fd.Matches(cur.W, cur.H, 0) {
			if err := fd.Configure(cur.W, cur.H, 0); err != nil {
				return nil, err
			}
		}
		if _, _, err := fd.Update(pf.prev, &hd); err != nil {
			return nil, err
		}
		if err := timed("histogram.delta", func() error { _, _, err := fd.Update(cur, &hd); return err }); err != nil {
			return nil, err
		}
		target := cur
		if !pf.zone.Empty() {
			z, err := cur.SubImage(pf.zone)
			if err != nil {
				return nil, err
			}
			target = z
		}
		if err := timed("core.range_exact", func() error {
			_, _, err := eng.SelectRange(ctx, target, stillOptions(pf.budget))
			return err
		}); err != nil {
			return nil, err
		}
		var ghe *equalize.Result
		if err := timed("equalize.solve", func() (err error) { ghe, err = equalize.SolveRange(&h, pf.r); return err }); err != nil {
			return nil, err
		}
		var coarse *plc.Result
		if err := timed("plc.coarsen", func() (err error) {
			coarse, err = plc.Coarsen(ghe.Points(), driver.DefaultConfig.Sources)
			return err
		}); err != nil {
			return nil, err
		}
		lut, err := coarse.LUT()
		if err != nil {
			return nil, err
		}
		dst := gray.New(cur.W, cur.H)
		if err := timed("gray.apply_packed", func() error {
			gray.ApplyLUTPacked(dst.Pix, cur.Pix, (*[transform.Levels]uint8)(lut))
			return nil
		}); err != nil {
			return nil, err
		}
		if err := timed("quality.uqi", func() error { _, err := quality.UQI(cur, dst, quality.UQIOptions{}); return err }); err != nil {
			return nil, err
		}
		beta, err := power.BetaForRange(pf.r, transform.Levels)
		if err != nil {
			return nil, err
		}
		if err := timed("power.saving", func() error {
			_, err := power.DefaultSubsystem.SavingPercent(cur, dst, beta)
			return err
		}); err != nil {
			return nil, err
		}
		field, grid := zoneField(cur)
		if err := timed("backlight.smooth", func() error {
			_, err := backlight.Smooth(field, grid, core.DefaultZoneMaxGradient)
			return err
		}); err != nil {
			return nil, err
		}
	}
	out := make(map[string]float64, len(us))
	for name, xs := range us {
		out[name] = median(xs)
	}
	return out, nil
}

// zoneField is a 4×4 β field for the smoothing probe: each zone's β is
// the one its brightest pixel needs.
func zoneField(img *gray.Image) ([]float64, backlight.Grid) {
	g := backlight.Grid{Rows: talkGrid, Cols: talkGrid}
	field := make([]float64, g.Zones())
	for k := range field {
		x0, y0, x1, y1 := g.ZoneRect(k, img.W, img.H)
		peak := 1
		for y := y0; y < y1; y++ {
			for _, v := range img.Pix[y*img.W+x0 : y*img.W+x1] {
				peak = max(peak, int(v))
			}
		}
		field[k] = float64(peak) / float64(transform.Levels-1)
	}
	return field, g
}

// snapshotDelta reads registry changes across the traced op loop.
type snapshotDelta struct{ before, after obs.Snapshot }

func (d snapshotDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// stage returns the call count and summed seconds a core.stage.<name>
// histogram gained.
func (d snapshotDelta) stage(name string) (calls, seconds float64) {
	key := "core.stage." + name + ".seconds"
	a, b := d.after.Histograms[key], d.before.Histograms[key]
	return float64(a.Count - b.Count), a.Sum - b.Sum
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes the per-layer metrics of a traced round:
// registry counters across the op loop, stage-histogram time per op,
// the layer probes on the round's own frames, and the share of op time
// the probes account for when each is weighted by its calls per op.
func layerMetrics(ctx context.Context, sys *system, ops []op, recs map[int]record,
	before, after obs.Snapshot, spans []obs.SpanData, rep *roundReport) (map[string]float64, error) {
	d := snapshotDelta{before, after}
	n := float64(rep.Ops)
	frames := d.counter("video.frames_total")
	zonedRuns := d.counter("core.zoned.runs_total")
	hits, misses := d.counter("core.plan_cache_hits_total"), d.counter("core.plan_cache_misses_total")
	skips, rebins := d.counter("core.zoned.zone_skips_total"), d.counter("core.zoned.zone_rebins_total")
	replays := d.counter("core.zoned.zone_replays_total")
	fastpath := d.counter("video.delta.frames_fastpath_total")
	m := map[string]float64{
		"core.plan_hit_ratio":            ratio(hits, hits+misses),
		"core.plan_misses_per_op":        misses / n,
		"core.zone_rebin_ratio":          ratio(rebins, skips+rebins),
		"core.zone_replay_ratio":         ratio(replays, skips+rebins),
		"video.range_reuse_ratio":        ratio(d.counter("video.range_reuse_total"), frames),
		"video.slew_limited_ratio":       ratio(d.counter("video.slew_limited_total"), frames),
		"video.fastpath_ratio":           ratio(fastpath, frames),
		"video.tiles_rebinned_per_frame": ratio(d.counter("video.delta.tiles_rebinned_total"), frames),
		"video.cut_snaps_per_op":         d.counter("video.cut_snaps_total") / n,
	}
	calls := make(map[string]float64)
	for _, s := range stageNames {
		c, sec := d.stage(s)
		m["core.stage."+s+".ms_per_op"] = sec * 1e3 / n
		calls[s] = c
	}

	probes, err := probeLayers(ctx, probeFrames(sys, ops, recs))
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		m[name+"_us"] = v
	}

	// Calls per op of each probed function. Stage histograms count the
	// classic walk's calls; the zoned walk records only plc and
	// equalize there, so its range searches, applies and metrics are
	// counted from the zone counters instead, and SelectRange, which
	// has no stage histogram, from its spans.
	classicFrames := frames - d.counter("video.zoned.frames_total")
	zoneCount := float64(talkGrid * talkGrid)
	frameReplays := d.counter("core.zoned.frame_replays_total")
	var classicDelta float64
	if sys.pol != nil && sys.pol.DeltaAnalysis && sys.pol.Backend == nil {
		classicDelta = classicFrames
	}
	perOp := map[string]float64{
		"histogram.of":      calls["histogram"],
		"histogram.delta":   classicDelta,
		"core.range_exact":  calls["range_select"] + countSpans(spans, "engine.range_select") + rebins,
		"equalize.solve":    calls["equalize"],
		"plc.coarsen":       calls["plc"],
		"gray.apply_packed": calls["apply"] + 2*zonedRuns - frameReplays,
		"quality.uqi":       calls["distortion"] + zonedRuns - frameReplays + (zoneCount*zonedRuns-replays)/zoneCount,
		"power.saving":      calls["power"] + classicFrames - fastpath,
		"backlight.smooth":  zonedRuns,
	}
	var attributed float64
	for name, c := range perOp {
		attributed += probes[name] * c / n
	}
	m["attributed_pct"] = 100 * attributed / (meanNs(rep.LatencyNs) / 1e3)
	return m, nil
}

// meanNs is the mean of nanosecond samples.
func meanNs(ns []int64) float64 {
	var s float64
	for _, v := range ns {
		s += float64(v)
	}
	return s / float64(len(ns))
}

// countSpans counts the spans with the given name.
func countSpans(spans []obs.SpanData, name string) float64 {
	var c float64
	for _, s := range spans {
		if s.Name == name {
			c++
		}
	}
	return c
}

// selfMsPerOp returns, per span name, the spans' self time in ms per
// op: each span's duration minus the part of it its children cover.
func selfMsPerOp(spans []obs.SpanData, ops int) map[string]float64 {
	children := make(map[uint64][]obs.SpanData)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.Duration - covered(s, children[s.ID])
		out[s.Name] += float64(self.Nanoseconds()) / 1e6 / float64(ops)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent obs.SpanData, kids []obs.SpanData) time.Duration {
	type iv struct{ lo, hi time.Time }
	end := parent.Start.Add(parent.Duration)
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.Start.Add(k.Duration)
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			total += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}
