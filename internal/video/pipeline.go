// The clip scheduler: the one walk every classic (nil or CCFL
// backend) clip takes. The paper's per-frame pipeline (Fig. 4: range
// select → GHE → PLC → apply → measure) plus the temporal policy mixes
// three kinds of work with very different dependency structure:
//
//   - The admissible-range search — a pure function of the frame,
//     embarrassingly parallel, and most of a frame's analysis cost.
//   - Per-frame statistics, the reuse decision and the β-slew/cut
//     governor — serial chains: the delta tile fold diffs each frame
//     against its predecessor, the estimator folds histograms in
//     stream order, and Eq. 10 reprograms the driver frame to frame,
//     so each frame's applied β depends on the previous frame's.
//   - Apply + the distortion/power measurements at the resolved range
//     — again pure per-frame functions once the range is fixed.
//
// processPipelined splits the clip along exactly those lines: one
// serial pre-pass over the frames (statistics, reuse, replay chain),
// the range searches, the governor serially over the collected numbers
// (a handful of float ops per frame — microseconds for any clip), then
// apply and measure every frame. With one worker each phase runs
// inline on the caller's goroutine (parallel.ForEach spawns nothing);
// with more, the search and Apply phases fan out. Outputs —
// frames, β sequences, driver programs, aggregates — are byte-identical
// at every worker count and to the per-frame paper reproduction
// (core.Process, the governor, then a re-run at the applied range),
// which TestWalkMatchesReference and FuzzClipWalk keep as their oracle.
package video

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// frameState carries one frame through the phases: its histogram,
// delta flags and reuse/replay decisions (the serial pre-pass), the
// selected range (C), the governor's decision record (D) — what the
// frame's own HEBS optimum was, which range Apply must run at after
// slew limiting, which policy events fired, whether the frame is fused
// — and the frame result (E). One pooled slice holds the whole clip so
// a steady-state run allocates a handful of objects per clip, not per
// frame.
type frameState struct {
	hist histogram.Histogram
	// analysis is the wall time the pre-pass and phase C spent on this
	// frame; phase E adds it to its own so a frame's latency covers the
	// whole frame at every worker count.
	analysis   time.Duration
	reuse      bool
	rng        int     // selected admissible range (non-reuse frames)
	target     float64 // per-frame optimum β = BetaForRange(target range)
	applyRange int     // range the frame is actually transformed at
	slew       bool
	cut        bool
	// Delta-analysis state (DeltaAnalysis only): identical marks a frame
	// whose pixels are byte-identical to its predecessor's (frame −1 for
	// frame 0), replay marks one that resolves its range from the
	// own-range memo instead of searching, and tileRatio is
	// changed/total tiles. A fused frame is identical and applied at
	// its predecessor's range: it copies the measurements of its copy
	// source — the measured frame copySrc, or frame −1 when copySrc is
	// -1 — instead of measuring.
	identical bool
	replay    bool
	tileRatio float64
	fused     bool
	copySrc   int
	fr        FrameResult
	done      bool
}

// clipState is the classic clip walk's state on its engine's free list
// (core.Engine.AcquireClipState): one clip's scratch — the per-frame
// states, the index lists of the frames phase C searches (built by the
// pre-pass) and of phase E's measuring and fused waves — plus frame −1.
//
// Frame −1 (DeltaAnalysis only) is the engine's previous clip's last
// frame: the tile reference of histogram.FrameDelta, plus the two
// memos a frame identical to it replays — its own admissible range,
// which skips the exact range search, and its FrameResult at the
// applied range, which a fused frame with copy source −1 copies without
// an engine call. Both replays are exact: range search and measurement
// are pure functions of (pixels, options), the byte comparison with the
// reference certifies the pixels, and core.KeyFor fingerprints the
// options. The tile state carries across clips unconditionally; the
// memos are dropped when the fingerprint moves or cannot be taken.
type clipState struct {
	frames             []frameState
	search, full, fast []int
	// wave is the Phase E wave in flight (full, then fast): one
	// closure reads it for both waves, so the two-wave apply costs one
	// allocation per clip, not two.
	wave []int

	delta     *histogram.FrameDelta
	ownRange  int
	ownValid  bool
	meas      FrameResult
	measValid bool
	key       core.OptionsKey
	keyOK     bool
}

// clipStateFor takes eng's most recently released clip state (a new
// one when it has none) and sizes its scratch for an n-frame clip,
// growing it only when a longer clip arrives.
//
//hebs:noalloc
func clipStateFor(eng *core.Engine, n int) *clipState {
	cs, _ := eng.AcquireClipState().(*clipState)
	if cs == nil {
		//hebs:noalloc-allow an engine's first clip; later clips reuse it
		cs = new(clipState)
	}
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

// primeDelta shapes the tile reference for w×h frames at
// histogram.DefaultTileSize and drops frame −1's memos when the
// geometry or the options fingerprint moved.
func (cs *clipState) primeDelta(w, h int, opts core.Options) error {
	key, keyOK := core.KeyFor(opts)
	if !keyOK || !cs.keyOK || key != cs.key {
		cs.ownValid, cs.measValid = false, false
	}
	cs.key, cs.keyOK = key, keyOK
	if cs.delta != nil && cs.delta.Matches(w, h, 0) {
		return nil
	}
	cs.ownValid, cs.measValid = false, false
	if cs.delta == nil {
		var err error
		cs.delta, err = histogram.NewFrameDelta(w, h, 0)
		return err
	}
	return cs.delta.Configure(w, h, 0)
}

// processPipelined is ProcessContext's clip walk; workers is the
// resolved pool bound (>= 1). It runs one serial pre-pass (delta tile
// fold or histogram, reuse estimator, replay chain), then fans out the
// range searches (C), runs the governor serially (D) and fans out
// apply-and-measure in two waves (E). A cancellation mid-clip returns
// the aggregated contiguous prefix of frames that completed phase E
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

	cs := clipStateFor(eng, n)
	defer eng.ReleaseClipState(cs)
	st := cs.frames

	// Frame −1 (DeltaAnalysis only): read its memos once; the state
	// keeps none until the clip completes cleanly — the tile fold below
	// moves the reference to a later frame, so a partial run must not
	// leave stale range/measurement records paired with it. ownRng and
	// ownOK thread the own-range memo through the pre-pass and phase D.
	var ownRng int
	var ownOK, m1OK bool
	var m1 FrameResult
	if pol.DeltaAnalysis {
		if err := cs.primeDelta(seq.Frames[0].W, seq.Frames[0].H, pol.Options); err != nil {
			return nil, err
		}
		ownRng, ownOK, m1, m1OK = cs.ownRange, cs.ownValid, cs.meas, cs.measValid
		cs.ownValid, cs.measValid = false, false
	}
	var est *histogram.Estimator
	if pol.ReuseThreshold > 0 {
		var err error
		if est, err = histogram.NewEstimator(0.5); err != nil {
			return nil, err
		}
	}

	// The serial pre-pass, in stream order:
	//   - statistics: the delta tile fold (each frame diffs against its
	//     predecessor) or, without it, a full histogram scan when the
	//     estimator needs one;
	//   - reuse: a frame whose histogram sits within ReuseThreshold
	//     (earth-mover's distance) of the running estimate is a static
	//     scene and inherits its predecessor's admissible range. Frame 0
	//     always searches (the estimator has seen nothing yet);
	//   - replay: the own-range memo is valid for a frame exactly when
	//     every frame since the last search (or frame −1) was identical.
	//     A non-identical reused frame breaks the chain (its own search
	//     never runs); a search re-anchors it;
	//   - phase C's list: every frame that neither reuses nor replays.
	// A histogram costs tens of microseconds against milliseconds of
	// search and apply per frame, so the pass runs inline.
	search := cs.search
	for i := range st {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		f := &st[i]
		t0 := time.Now()
		if pol.DeltaAnalysis {
			changed, total, err := cs.delta.Update(seq.Frames[i], &f.hist)
			if err != nil {
				return nil, err
			}
			mTilesRebinned.Add(int64(changed))
			f.tileRatio = float64(changed) / float64(total)
			f.identical = changed == 0
		} else if est != nil {
			histogram.OfInto(seq.Frames[i], &f.hist)
		}
		f.analysis = time.Since(t0)
		if est != nil {
			if est.Ready() {
				d, err := est.Distance(&f.hist)
				if err != nil {
					return nil, err
				}
				f.reuse = d < pol.ReuseThreshold
			}
			if err := est.Observe(&f.hist); err != nil {
				return nil, err
			}
		}
		f.replay = f.identical && !f.reuse && ownOK
		ownOK = !f.reuse || f.identical && ownOK
		if !f.reuse && !f.replay {
			search = append(search, i)
		}
	}

	// Phase C — admissible-range search for every frame that neither
	// inherits nor replays its range, fanned out with per-worker pooled
	// scratch (the engine's buffer pool plus its shared
	// reconstruction-LUT cache back the exact search). The job list
	// holds only the searching frames, so a steady-state clip (one
	// search, the rest reused) runs inline with no pool spawn at all.
	// The searches run under the clip span so their stage.range_select
	// spans nest under video.Process.
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
	// prevApply is frame i−1's applied range (frame −1's for frame 0,
	// -1 when frame −1 has no valid record).
	prevApply := -1
	if m1OK {
		prevApply = m1.Range
	}
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
		// Fusion: identical pixels at an identical operating point
		// measure identically, so the frame copies its predecessor's
		// copy source (the predecessor itself when it measured).
		if st[i].identical && st[i].applyRange == prevApply {
			st[i].fused = true
			st[i].copySrc = i - 1
			if i > 0 && st[i-1].fused {
				st[i].copySrc = st[i-1].copySrc
			}
		}
		prevApply = st[i].applyRange
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
	// contiguous completed prefix. The closure takes frame −1's record
	// by value, so m1 stays off the heap.
	meas1 := m1
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
		if pol.DeltaAnalysis {
			fsp.SetFloat("tile_change_ratio", st[i].tileRatio)
		}
		fr := FrameResult{TargetBeta: st[i].target}
		planCached := st[i].fused
		if st[i].fused {
			// Fused frame: no engine call. Its measurements are copied from
			// its copy source (which the first apply wave already
			// completed) or frame −1, and it reports its plan as cached, as
			// a zoned replay does.
			fsp.SetBool("fused_apply", true)
			mFastPath.Inc()
			fr = meas1
			if j := st[i].copySrc; j >= 0 {
				fr = st[j].fr
			}
			fr.TargetBeta = st[i].target
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
			if pol.ReuseThreshold > 0 || pol.DeltaAnalysis {
				hh = st[i].hist.Fingerprint() // the pre-pass filled it
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
	if !pol.DeltaAnalysis {
		applyErr = parallel.ForEach(ctx, n, workers, applyFrame)
	} else {
		// Fused frames copy measurements from their copy sources, so the
		// measuring wave must land first; both waves fan out
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
	if pol.DeltaAnalysis {
		// The clip completed cleanly: re-validate the memos against the
		// tile reference (now the last frame), which becomes the engine's
		// next clip's frame −1.
		cs.ownRange, cs.ownValid = ownRng, ownOK
		cs.meas, cs.measValid = st[n-1].fr, true
	}
	return finish(nil)
}
