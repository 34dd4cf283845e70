// The clip scheduler: the one walk every classic (nil or CCFL
// backend) clip takes. The paper's per-frame pipeline (Fig. 4: range
// select → GHE → PLC → apply → measure) plus the temporal policy mixes
// three kinds of work with very different dependency structure:
//
//   - Per-frame statistics (histogram) and the admissible-range search
//     — pure functions of the frame, embarrassingly parallel.
//   - The reuse decision and the β-slew/cut governor — an inherently
//     serial chain: Eq. 10 reprograms the driver frame to frame, so
//     each frame's applied β depends on the previous frame's, and the
//     estimator folds histograms in stream order.
//   - Apply + the distortion/power measurements at the resolved range
//     — again pure per-frame functions once the range is fixed.
//
// processPipelined splits the clip along exactly those lines: analyze
// every frame, run the governor serially over the collected numbers
// (O(256) folds and a handful of float ops per frame — microseconds for
// any clip), then apply and measure every frame. With one worker each
// phase runs inline on the caller's goroutine (parallel.ForEach spawns
// nothing); with more, the analysis and Apply phases fan out. Outputs —
// frames, β sequences, driver programs, aggregates — are byte-identical
// at every worker count and to the per-frame paper reproduction
// (core.Process, the governor, then a re-run at the applied range),
// which TestWalkMatchesReference keeps as its oracle.
package video

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hebs/internal/core"
	"hebs/internal/histogram"
	"hebs/internal/invariant"
	"hebs/internal/obs"
	"hebs/internal/parallel"
	"hebs/internal/power"
	"hebs/internal/transform"
)

// policyWorkers resolves Policy.Workers (0/1 inline, n > 1 bounded,
// negative GOMAXPROCS) against the clip length.
func policyWorkers(n, frames int) int {
	if n == 0 {
		return 1
	}
	return parallel.Workers(n, frames)
}

// frameState carries one frame through the phases: its histogram
// (phase A), the reuse flag (B), the selected range (C), the
// governor's decision record (D) — what the frame's own HEBS optimum
// was, which range Apply must run at after slew limiting, which policy
// events fired — and the frame result (E). One pooled slice holds the
// whole clip so a steady-state run allocates a handful of objects per
// clip, not per frame.
type frameState struct {
	hist histogram.Histogram
	// analysis is the wall time phases A0, A and C spent on this frame;
	// phase E adds it to its own so a frame's latency covers the whole
	// frame at every worker count.
	analysis   time.Duration
	reuse      bool
	rng        int     // selected admissible range (non-reuse frames)
	target     float64 // per-frame optimum β = BetaForRange(target range)
	applyRange int     // range the frame is actually transformed at
	slew       bool
	cut        bool
	// Delta-analysis state (DeltaAnalysis only): identical marks a frame
	// whose pixels are byte-identical to its predecessor's (the pooled
	// reference for frame 0), replay marks one that resolves its range
	// from the own-range memo instead of searching, tileRatio is
	// changed/total tiles, and fused frames copy their measurements from
	// copySrc (a frame index, or -2 for the pooled cross-clip record)
	// instead of measuring.
	identical bool
	replay    bool
	tileRatio float64
	fused     bool
	copySrc   int
	fr        FrameResult
	done      bool
}

// minHistFanoutPixels is the per-frame work floor for fanning out the
// statistics phase: below ~32K pixels a frame's histogram scan costs
// less than handing it to another goroutine.
const minHistFanoutPixels = 1 << 15

// clipState is one clip's pooled scratch: the per-frame states plus
// the index lists of the frames phase C searches and of phase E's
// measuring and fused waves.
type clipState struct {
	frames             []frameState
	search, full, fast []int
	// wave is the Phase E wave in flight (full, then fast): one
	// closure reads it for both waves, so the two-wave apply costs one
	// allocation per clip, not two.
	wave []int
}

// statePool recycles clip state across runs.
var statePool = sync.Pool{New: func() any { return new(clipState) }}

// getClipState draws clip-sized state from the pool, growing it only
// when a longer clip arrives.
//
//hebs:noalloc
func getClipState(n int) *clipState {
	cs := statePool.Get().(*clipState)
	if cap(cs.frames) < n {
		//hebs:noalloc-allow clip-state growth on first longer clip; amortized to zero in steady state
		cs.frames = make([]frameState, n)
		//hebs:noalloc-allow the three index lists share one backing array, grown with the frames
		idx := make([]int, 3*n)
		cs.search, cs.full, cs.fast = idx[:0:n], idx[n:n:2*n], idx[2*n:2*n:3*n]
	}
	cs.frames = cs.frames[:n]
	for i := range cs.frames {
		cs.frames[i] = frameState{}
	}
	cs.search, cs.full, cs.fast = cs.search[:0], cs.full[:0], cs.fast[:0]
	return cs
}

// processPipelined is ProcessContext's clip walk; workers is the
// resolved pool bound (>= 1). A cancellation mid-clip returns the
// aggregated contiguous prefix of frames that completed phase E
// (possibly empty) together with ctx's error.
func processPipelined(ctx context.Context, seq *Sequence, pol Policy, workers int) (*Result, error) {
	eng := pol.Engine
	if eng == nil {
		eng = core.NewEngine(core.EngineOptions{Workers: pol.Workers})
	}
	sp := pol.Options.Trace.Child("video.Process")
	defer sp.End()
	n := len(seq.Frames)
	sp.SetInt("frames", n)
	sp.SetInt("workers", workers)
	mSequences.Inc()
	res := &Result{}
	// finish aggregates whatever prefix completed and reports clipErr
	// (nil for a full run).
	finish := func(clipErr error) (*Result, error) {
		res.aggregate()
		return res, clipErr
	}

	cs := getClipState(n)
	defer statePool.Put(cs)
	st := cs.frames

	// Phase A0 — incremental analysis (DeltaAnalysis only). The tile
	// fold is a serial chain (each frame diffs against its predecessor),
	// and it replaces the per-frame full histogram scans below.
	var ds *deltaState
	var dsOwnRange int
	var dsOwnValid bool
	var dsMeas deltaMeas
	if pol.DeltaAnalysis {
		d, err := acquireDelta(seq.Frames[0].W, seq.Frames[0].H, pol.Options)
		if err != nil {
			return nil, err
		}
		ds = d
		defer releaseDelta(ds)
		// Capture the pooled memoizations and invalidate them until the
		// clip completes cleanly: after the fold below the tile reference
		// tracks the LAST frame, so a partial run must not leave stale
		// range/measurement records paired with it.
		dsOwnRange, dsOwnValid, dsMeas = ds.ownRange, ds.ownValid, ds.meas
		ds.ownValid = false
		ds.meas.valid = false
		for i := range st {
			t0 := time.Now()
			changed, total, err := ds.delta.Update(seq.Frames[i], &st[i].hist)
			st[i].analysis = time.Since(t0)
			if err != nil {
				return nil, err
			}
			mTilesRebinned.Add(int64(changed))
			st[i].tileRatio = float64(changed) / float64(total)
			st[i].identical = changed == 0
		}
	}

	// Phase A+B — reuse decisions. Frame histograms are independent
	// (fan out); the estimator fold is stream-ordered (serial). A frame
	// whose histogram sits within ReuseThreshold (earth-mover's distance)
	// of the running estimate is a static scene: it skips the range
	// search and inherits its predecessor's admissible range, which
	// makes the per-image exact search moot as well. Frame 0 always
	// searches (the estimator has seen nothing yet).
	if pol.ReuseThreshold > 0 {
		est, err := histogram.NewEstimator(0.5)
		if err != nil {
			return nil, err
		}
		// Small frames scan in microseconds; below the work floor the
		// fan-out costs more than it saves, and ForEach with one worker
		// runs inline (no goroutines, no allocations). With delta
		// analysis on, the fold above already filled every histogram.
		if ds == nil {
			hw := workers
			if len(seq.Frames[0].Pix) < minHistFanoutPixels {
				hw = 1
			}
			if err := parallel.ForEach(ctx, n, hw, func(i int) error {
				t0 := time.Now()
				histogram.OfInto(seq.Frames[i], &st[i].hist)
				st[i].analysis += time.Since(t0)
				return nil
			}); err != nil {
				return finish(err) // only ctx errors escape this phase
			}
		}
		for i := range st {
			if est.Ready() {
				d, err := est.Distance(&st[i].hist)
				if err != nil {
					return nil, err
				}
				st[i].reuse = d < pol.ReuseThreshold
			}
			if err := est.Observe(&st[i].hist); err != nil {
				return nil, err
			}
		}
	}

	// Phase C — admissible-range search for every frame that will not
	// inherit its range, fanned out with per-worker pooled scratch
	// (the engine's buffer pool plus its shared reconstruction-LUT
	// cache back the exact search). The job list is compacted to the
	// searching frames so a steady-state clip (one search, the rest
	// reused) runs inline with no pool spawn at all. The searches run
	// under the clip span so their stage.range_select spans nest under
	// video.Process.
	// Replay chain (DeltaAnalysis only): the own-range memo is valid for
	// a frame exactly when its pixels are certified identical to the
	// pixels the memo's search ran on — i.e. every frame since the last
	// searched frame (or the pooled reference) was identical, with the
	// chain broken by a non-identical reused frame (its own search never
	// runs, so the memo goes stale). Replay frames skip phase C; the
	// memo value itself is threaded through phase D.
	ownOK := dsOwnValid
	if ds != nil {
		for i := range st {
			st[i].replay = st[i].identical && !st[i].reuse && ownOK
			switch {
			case st[i].reuse:
				if !st[i].identical {
					ownOK = false
				}
			case st[i].replay:
				// Memo replayed; still anchored to these pixels.
			default:
				// This frame searches in phase C, re-anchoring the memo.
				ownOK = true
			}
		}
	}
	search := cs.search
	for i := range st {
		if !st[i].reuse && !st[i].replay {
			search = append(search, i)
		}
	}
	sctx := obs.ContextWithSpan(ctx, sp)
	if err := parallel.ForEach(sctx, len(search), workers, func(k int) error {
		i := search[k]
		t0 := time.Now()
		r, _, err := eng.SelectRange(sctx, seq.Frames[i], pol.Options)
		st[i].analysis += time.Since(t0)
		if err != nil {
			return fmt.Errorf("video: frame %d: %w", i, err)
		}
		st[i].rng = r
		return nil
	}); err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return finish(cerr)
		}
		return nil, err
	}

	// Phase D — the serial governor: resolve inherited ranges, then
	// run the fast-attack/slow-decay β track with cut snapping (see
	// Process). A slew-limited β is re-quantized through RangeForBeta —
	// the applied β must sit on the driver's range grid, and phase E
	// transforms the frame at that range so the image is consistent with
	// the backlight actually applied.
	prevBeta := math.NaN()
	tr := 0
	// Delta bookkeeping (DeltaAnalysis only): ownRng is the threaded
	// own-range memo the replay frames resolve to; head is the most
	// recent frame of the current pixel-identity run that measures fully
	// (-1: none yet); poolChain holds while the identity run extends
	// back to the pooled cross-clip reference frame.
	ownRng := dsOwnRange
	head := -1
	poolChain := true
	for i := 0; i < n; i++ {
		switch {
		case st[i].replay:
			tr = ownRng
		case !st[i].reuse:
			tr = st[i].rng
			ownRng = st[i].rng // fresh search re-anchors the memo
		}
		target, err := power.BetaForRange(tr, transform.Levels)
		if err != nil {
			return nil, fmt.Errorf("video: frame %d: %w", i, err)
		}
		applied := target
		cutSnap := false
		if !math.IsNaN(prevBeta) && pol.MaxStep > 0 {
			delta := target - prevBeta
			isCut := pol.CutThreshold > 0 && math.Abs(delta) > pol.CutThreshold
			cutSnap = isCut
			// Brightening (delta >= 0) is immediate: staying below the
			// frame's target would exceed its distortion budget. Dimming
			// is slew-limited unless a scene cut masks it.
			if delta < -pol.MaxStep && !isCut {
				applied = prevBeta - pol.MaxStep
			}
		}
		st[i].target = target
		st[i].applyRange = tr
		st[i].cut = cutSnap
		finalBeta := target
		//hebslint:allow floateq applied is assigned from target unless slew-limited
		if applied != target {
			st[i].slew = true
			rng, err := power.RangeForBeta(applied, transform.Levels)
			if err != nil {
				return nil, fmt.Errorf("video: frame %d: %w", i, err)
			}
			st[i].applyRange = rng
			finalBeta, err = power.BetaForRange(rng, transform.Levels)
			if err != nil {
				return nil, fmt.Errorf("video: frame %d: %w", i, err)
			}
		}
		// Fusion eligibility: a frame may copy its measurements from the
		// measuring head of its pixel-identity run (or from the pooled
		// cross-clip record while the run reaches back to the reference
		// frame) when the applied range matches — identical pixels at an
		// identical operating point measure identically.
		if ds != nil {
			if !st[i].identical {
				head = -1
				poolChain = false
			}
			if st[i].identical {
				if head >= 0 && st[head].applyRange == st[i].applyRange {
					st[i].fused = true
					st[i].copySrc = head
				} else if head < 0 && poolChain && dsMeas.valid && dsMeas.rng == st[i].applyRange {
					st[i].fused = true
					st[i].copySrc = -2
				}
			}
			if !st[i].fused {
				head = i
			}
		}
		// Per-frame policy counters.
		if st[i].reuse {
			mRangeReuse.Inc()
		}
		if st[i].cut {
			mCutSnaps.Inc()
		}
		if st[i].slew {
			mSlewLimited.Inc()
		}
		if invariant.Enabled {
			invariant.AssertBeta("video: target β", st[i].target)
			invariant.AssertBeta("video: applied β", finalBeta)
			if pol.MaxStep > 0 && !math.IsNaN(prevBeta) && !cutSnap {
				// The track may only dim by MaxStep per frame, plus the
				// 1/(G−1) quantization of RangeForBeta's floor.
				invariant.Assert(prevBeta-finalBeta <= pol.MaxStep+1.0/float64(transform.Levels-1)+1e-9,
					"video: dimming slew %v exceeds MaxStep %v", prevBeta-finalBeta, pol.MaxStep)
			}
		}
		prevBeta = finalBeta
	}

	// Phase E — Apply and measure at the resolved ranges, fanned out.
	// Results land in per-frame slots; a cancellation keeps the
	// contiguous completed prefix.
	applyFrame := func(i int) error {
		start := time.Now()
		fsp := sp.Child("video.frame")
		defer fsp.End()
		fsp.SetInt("frame", pol.frameOffset+i)
		defer func() { mFrameLatency.ObserveDuration(st[i].analysis + time.Since(start)) }()
		mFrames.Inc()
		gInflight.Add(1)
		defer gInflight.Add(-1)
		if st[i].reuse {
			fsp.SetBool("range_reused", true)
		}
		if st[i].cut {
			fsp.SetBool("cut_snap", true)
		}
		if st[i].slew {
			fsp.SetBool("slew_limited", true)
		}
		if ds != nil {
			fsp.SetFloat("tile_change_ratio", st[i].tileRatio)
		}
		fr := FrameResult{TargetBeta: st[i].target}
		planCached := st[i].fused
		if st[i].fused {
			// Fused frame: no engine call. Its measurements are copied from
			// the identity run's head (which the first apply wave already
			// completed) or the pooled cross-clip record, and it reports
			// its plan as cached, as a zoned replay does.
			fsp.SetBool("fused_apply", true)
			mFastPath.Inc()
			src := dsMeas
			if st[i].copySrc >= 0 {
				f := st[st[i].copySrc].fr
				src = deltaMeas{rng: f.Range, beta: f.Beta,
					distortion: f.Distortion, saving: f.SavingPercent}
			}
			fr.Beta = src.beta
			fr.Range = src.rng
			fr.Distortion = src.distortion
			fr.SavingPercent = src.saving
		} else {
			opts := pol.Options
			opts.Trace = fsp
			opts.DynamicRange = st[i].applyRange
			opts.MaxDistortionPercent = 0
			opts.ExactSearch = false
			r, err := eng.Process(ctx, seq.Frames[i], opts)
			if err != nil {
				if st[i].slew {
					return fmt.Errorf("video: frame %d (smoothed): %w", i, err)
				}
				return fmt.Errorf("video: frame %d: %w", i, err)
			}
			fr.Beta = r.Beta
			fr.Range = r.Range
			fr.Distortion = r.AchievedDistortion
			fr.SavingPercent = r.PowerSavingPercent
			planCached = r.PlanCached
			r.Release()
			if r.PowerBefore <= 0 {
				return fmt.Errorf("video: frame %d: power: non-positive baseline power %v", i, r.PowerBefore)
			}
		}
		fsp.SetFloat("target_beta", fr.TargetBeta)
		fsp.SetFloat("applied_beta", fr.Beta)
		fsp.SetInt("range", fr.Range)
		fsp.SetFloat("saving_pct", fr.SavingPercent)
		if rec := obs.Flight(); rec != nil {
			var hh uint64
			if pol.ReuseThreshold > 0 || ds != nil {
				hh = flightHistHash(&st[i].hist) // phase A filled it
			}
			rec.Record(obs.FrameRecord{
				Frame:           pol.frameOffset + i,
				TargetBeta:      fr.TargetBeta,
				Beta:            fr.Beta,
				Range:           fr.Range,
				HistHash:        hh,
				PlanCached:      planCached,
				RangeReused:     st[i].reuse,
				CutSnap:         st[i].cut,
				SlewLimited:     st[i].slew,
				FusedApply:      st[i].fused,
				TileChangeRatio: st[i].tileRatio,
				Workers:         workers,
				Seconds:         (st[i].analysis + time.Since(start)).Seconds(),
			})
		}
		st[i].fr = fr
		st[i].done = true
		return nil
	}
	var applyErr error
	if ds == nil {
		applyErr = parallel.ForEach(ctx, n, workers, applyFrame)
	} else {
		// Fused frames copy measurements from their identity run's head,
		// so the full-measure wave must land first; both waves fan out
		// freely within themselves.
		full, fast := cs.full, cs.fast
		for i := range st {
			if st[i].fused {
				fast = append(fast, i)
			} else {
				full = append(full, i)
			}
		}
		runWave := func(k int) error { return applyFrame(cs.wave[k]) }
		cs.wave = full
		applyErr = parallel.ForEach(ctx, len(full), workers, runWave)
		if applyErr == nil && len(fast) > 0 {
			cs.wave = fast
			applyErr = parallel.ForEach(ctx, len(fast), workers, runWave)
		}
	}
	if applyErr != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(applyErr, cerr) {
			for i := 0; i < n && st[i].done; i++ {
				res.Frames = append(res.Frames, st[i].fr)
			}
			return finish(cerr)
		}
		return nil, applyErr
	}
	res.Frames = make([]FrameResult, n)
	for i := range st {
		res.Frames[i] = st[i].fr
	}
	if ds != nil {
		// The clip completed cleanly: re-validate the pooled memoizations
		// against the tile reference (now the last frame). ownRng/ownOK
		// carry the threaded own-range memo; the measurement record is the
		// last frame's applied-range numbers.
		last := st[n-1].fr
		ds.ownRange, ds.ownValid = ownRng, ownOK
		ds.meas = deltaMeas{rng: last.Range, beta: last.Beta,
			distortion: last.Distortion, saving: last.SavingPercent, valid: true}
	}
	return finish(nil)
}
