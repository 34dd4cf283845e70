// Zoned temporal control: the per-zone walk a zone-capable backlight
// backend routes a clip through. Each zone carries its own
// fast-attack / slow-decay β track — brightening is immediate (a zone
// below its target would violate its distortion budget), dimming is
// limited to the effective per-frame slew (the policy's MaxStep
// intersected with the backend's hardware MaxSlew) — expressed as
// per-zone floors handed to core's zoned engine path, which applies
// them before spatial smoothing so the halo relaxation still bounds
// the final field. A mean target drop beyond CutThreshold is a scene
// cut: the frame re-runs without floors and the field snaps.
package video

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"hebs/internal/core"
	"hebs/internal/invariant"
	"hebs/internal/obs"
	"hebs/internal/transform"
)

var (
	mZonedFrames = obs.NewCounter("video.zoned.frames_total")
	mZonedReplay = obs.NewCounter("video.zoned.frames_replayed_total")
)

// effectiveSlew intersects the policy's slew limit with the hardware's
// (0 means unlimited on either side).
func effectiveSlew(policy, hardware float64) float64 {
	switch {
	case policy <= 0:
		return hardware
	case hardware <= 0:
		return policy
	case hardware < policy:
		return hardware
	default:
		return policy
	}
}

// processZonedClip walks a clip through the per-zone engine path.
// Frames run serially; intra-frame parallelism (the zone fan-out)
// comes from the engine's worker pool, so Policy.Workers sizes that
// pool when the policy does not bring its own engine.
func processZonedClip(ctx context.Context, seq *Sequence, pol Policy) (*Result, error) {
	b := pol.Backend
	g := b.Grid()
	zones := g.Zones()
	eng := pol.Engine
	if eng == nil {
		// The default engine joins the process-wide sharded plan cache,
		// which holds many zone grids' worth of plans — no per-walk
		// cache sizing needed.
		eng = core.NewEngine(core.EngineOptions{Workers: pol.Workers})
	}
	step := effectiveSlew(pol.MaxStep, b.MaxSlew())
	quant := 1.0 / float64(transform.Levels-1)
	workers := eng.Workers()

	sp := pol.Options.Trace.Child("video.ProcessZoned")
	defer sp.End()
	sp.SetInt("frames", len(seq.Frames))
	sp.SetInt("zones", zones)
	sp.SetString("backend", b.Name())
	mSequences.Inc()

	res := &Result{}
	prev := make([]float64, 0, zones) // applied β field of the previous frame
	floors := make([]float64, zones)
	var prevFR FrameResult
	prevStable := false // previous frame ran floor-free at its own targets
	var prevPix []byte  // previous frame's pixels (DeltaAnalysis only)

	var clipErr error
	for i, frame := range seq.Frames {
		if err := ctx.Err(); err != nil {
			clipErr = err
			break
		}
		start := time.Now()
		fsp := sp.Child("video.frame")
		fsp.SetInt("frame", pol.frameOffset+i)
		mFrames.Inc()
		mZonedFrames.Inc()
		gInflight.Add(1)

		// Certified-identical replay: same pixels as the previous frame
		// while its track was stable (no floor bound, no snap) replay
		// the same deterministic decision without re-running the engine.
		// A replay reuses the previous frame's plans, so it reports
		// PlanCached as a fused classic frame does.
		if pol.DeltaAnalysis && prevStable && prevPix != nil && bytes.Equal(prevPix, frame.Pix) {
			fr := prevFR
			res.Frames = append(res.Frames, fr)
			mZonedReplay.Inc()
			fsp.SetBool("zoned_replay", true)
			finishZonedFrame(fsp, fr, obs.FrameRecord{
				Frame:      pol.frameOffset + i,
				PlanCached: true,
				Workers:    workers,
			}, start)
			continue
		}

		opts := pol.Options
		opts.Trace = fsp
		floored := false
		if len(prev) == zones && step > 0 {
			for k, p := range prev {
				f := p - step
				if f < 0 {
					f = 0
				}
				floors[k] = f
			}
			opts.ZoneBetaFloor = floors
			floored = true
		}
		zr, err := eng.ProcessZoned(ctx, frame, opts, b)
		if err != nil {
			gInflight.Add(-1)
			fsp.End()
			if cerr := ctx.Err(); cerr != nil {
				clipErr = cerr
				break
			}
			return nil, fmt.Errorf("video: frame %d: %w", i, err)
		}

		// Scene-cut detection on the zone targets: a mean drop beyond
		// the threshold means holding the old field serves a scene that
		// no longer exists — snap by re-running floor-free.
		cutSnap := false
		if floored && pol.CutThreshold > 0 {
			meanDelta := 0.0
			for k := range zr.Zones {
				meanDelta += math.Abs(zr.Zones[k].TargetBeta - prev[k])
			}
			meanDelta /= float64(zones)
			if meanDelta > pol.CutThreshold {
				zr.Release()
				opts.ZoneBetaFloor = nil
				zr, err = eng.ProcessZoned(ctx, frame, opts, b)
				if err != nil {
					gInflight.Add(-1)
					fsp.End()
					if cerr := ctx.Err(); cerr != nil {
						clipErr = cerr
						break
					}
					return nil, fmt.Errorf("video: frame %d (cut): %w", i, err)
				}
				cutSnap = true
				floored = false
				fsp.SetBool("cut_snap", true)
				mCutSnaps.Inc()
			}
		}

		meanTarget := 0.0
		maxRange := 0
		stable := true
		prev = prev[:0]
		for k := range zr.Zones {
			z := &zr.Zones[k]
			meanTarget += z.TargetBeta
			if z.Range > maxRange {
				maxRange = z.Range
			}
			prev = append(prev, z.Beta)
			// The track is stable once the applied field sits at the
			// zone targets up to drive quantization — then floors can
			// no longer bind and identical frames may replay.
			if z.Beta-z.TargetBeta > quant+1e-12 {
				stable = false
			}
			if invariant.Enabled {
				invariant.AssertBeta("video: zone β", z.Beta)
				if floored {
					invariant.Assert(floors[k]-z.Beta <= 1e-9,
						"video: zone %d β %v fell below its floor %v", k, z.Beta, floors[k])
				}
			}
		}
		meanTarget /= float64(zones)

		fr := FrameResult{
			TargetBeta:     meanTarget,
			Beta:           zr.BetaMean,
			Range:          maxRange,
			SavingPercent:  zr.PowerSavingPercent,
			Distortion:     zr.AchievedDistortion,
			Zones:          zones,
			ZoneBetaSpread: zr.BetaSpread,
		}
		smooth := zr.SmoothSweeps
		zr.Release()

		slew := floored && fr.Beta-fr.TargetBeta > quant+1e-12
		if slew {
			fsp.SetBool("slew_limited", true)
			mSlewLimited.Inc()
		}
		res.Frames = append(res.Frames, fr)
		prevFR = fr
		prevStable = stable && !cutSnap
		if pol.DeltaAnalysis {
			if prevPix == nil {
				prevPix = make([]byte, len(frame.Pix))
			}
			copy(prevPix, frame.Pix)
		}
		finishZonedFrame(fsp, fr, obs.FrameRecord{
			Frame:       pol.frameOffset + i,
			CutSnap:     cutSnap,
			SlewLimited: slew,
			SmoothIters: smooth,
			Workers:     workers,
		}, start)
	}
	res.aggregate()
	if clipErr != nil {
		return res, clipErr
	}
	return res, nil
}

// finishZonedFrame closes one zoned frame, fresh or replayed: it
// annotates the span with the operating point, feeds the flight
// recorder and observes video.frame.seconds. rec carries the frame
// index, path flags and worker count; the operating point comes from
// fr.
func finishZonedFrame(fsp *obs.Span, fr FrameResult, rec obs.FrameRecord, start time.Time) {
	fsp.SetFloat("target_beta", fr.TargetBeta)
	fsp.SetFloat("applied_beta", fr.Beta)
	fsp.SetInt("range", fr.Range)
	fsp.SetFloat("saving_pct", fr.SavingPercent)
	fsp.SetFloat("zone_beta_spread", fr.ZoneBetaSpread)
	elapsed := time.Since(start)
	if fl := obs.Flight(); fl != nil {
		rec.TargetBeta = fr.TargetBeta
		rec.Beta = fr.Beta
		rec.Range = fr.Range
		rec.Zones = fr.Zones
		rec.ZoneBetaSpread = fr.ZoneBetaSpread
		rec.Seconds = elapsed.Seconds()
		fl.Record(rec)
	}
	mFrameLatency.ObserveDuration(elapsed)
	gInflight.Add(-1)
	fsp.End()
}
