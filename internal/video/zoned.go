// Zoned temporal control: the per-zone walk a zone-capable backlight
// backend routes a clip through. Each zone carries its own
// fast-attack / slow-decay β track — brightening is immediate (a zone
// below its target would violate its distortion budget), dimming is
// limited to the effective per-frame slew (the policy's MaxStep
// intersected with the backend's hardware MaxSlew) — expressed as
// per-zone floors handed to core's zoned engine path, which applies
// them before spatial smoothing so the halo relaxation still bounds
// the final field. The governor runs inside the one engine call per
// frame, on the frame's own zone targets: a mean |target − prev|
// beyond CutThreshold is a scene cut, and the field snaps (no floors).
package video

import (
	"context"
	"fmt"
	"math"
	"time"

	"hebs/internal/core"
	"hebs/internal/invariant"
	"hebs/internal/obs"
	"hebs/internal/transform"
)

var mZonedFrames = obs.NewCounter("video.zoned.frames_total")

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
		// The default engine joins the process-wide plan cache,
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
	// govern is the temporal governor, run by the engine between the
	// per-zone analysis and the β field. A mean |target − prev| beyond
	// CutThreshold is a scene cut: holding the old field would serve a
	// scene that no longer exists, so the field snaps (no floors).
	// Otherwise each zone dims by at most step below its previous β.
	var floored, cutSnap bool
	govern := func(targets []float64) []float64 {
		floored, cutSnap = false, false
		if len(prev) != zones || step <= 0 {
			return nil
		}
		if pol.CutThreshold > 0 {
			meanDelta := 0.0
			for k, t := range targets {
				meanDelta += math.Abs(t - prev[k])
			}
			if meanDelta/float64(zones) > pol.CutThreshold {
				cutSnap = true
				return nil
			}
		}
		for k, p := range prev {
			floors[k] = max(p-step, 0)
		}
		floored = true
		return floors
	}

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

		opts := pol.Options
		opts.Trace = fsp
		zr, err := eng.ProcessZoned(ctx, frame, opts, b, govern)
		if err != nil {
			gInflight.Add(-1)
			fsp.End()
			if cerr := ctx.Err(); cerr != nil {
				clipErr = cerr
				break
			}
			return nil, fmt.Errorf("video: frame %d: %w", i, err)
		}
		if cutSnap {
			fsp.SetBool("cut_snap", true)
			mCutSnaps.Inc()
		}

		meanTarget := 0.0
		maxRange := 0
		planCached := true
		prev = prev[:0]
		for k := range zr.Zones {
			z := &zr.Zones[k]
			meanTarget += z.TargetBeta
			if z.Range > maxRange {
				maxRange = z.Range
			}
			planCached = planCached && z.PlanCached
			prev = append(prev, z.Beta)
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

		fsp.SetFloat("target_beta", fr.TargetBeta)
		fsp.SetFloat("applied_beta", fr.Beta)
		fsp.SetInt("range", fr.Range)
		fsp.SetFloat("saving_pct", fr.SavingPercent)
		fsp.SetFloat("zone_beta_spread", fr.ZoneBetaSpread)
		elapsed := time.Since(start)
		if fl := obs.Flight(); fl != nil {
			fl.Record(obs.FrameRecord{
				Frame:          pol.frameOffset + i,
				TargetBeta:     fr.TargetBeta,
				Beta:           fr.Beta,
				Range:          fr.Range,
				PlanCached:     planCached,
				CutSnap:        cutSnap,
				SlewLimited:    slew,
				SmoothIters:    smooth,
				Zones:          zones,
				ZoneBetaSpread: fr.ZoneBetaSpread,
				Workers:        workers,
				Seconds:        elapsed.Seconds(),
			})
		}
		mFrameLatency.ObserveDuration(elapsed)
		gInflight.Add(-1)
		fsp.End()
	}
	res.aggregate()
	if clipErr != nil {
		return res, clipErr
	}
	return res, nil
}
