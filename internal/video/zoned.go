// Zoned temporal control: the per-zone walk a zone-capable backlight
// backend routes a clip through. Each zone carries its own
// fast-attack / slow-decay β track — brightening is immediate (a zone
// below its target would violate its distortion budget), dimming is
// limited to the effective per-frame slew (the policy's MaxStep
// intersected with the backend's hardware MaxSlew) — expressed as
// per-zone floors handed to core's zoned engine path, which applies
// them before spatial smoothing so the halo relaxation still bounds
// the final field. The governor (governor.go, shared with the classic
// walk) runs inside the one engine call per frame, on the frame's own
// zone targets: a mean |target − prev| beyond CutThreshold is a scene
// cut, and the field snaps (no floors).
package video

import (
	"context"
	"fmt"
	"time"

	"hebs/internal/core"
	"hebs/internal/invariant"
	"hebs/internal/obs"
)

var mZonedFrames = obs.NewCounter("video.zoned.frames_total")

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
	workers := eng.Workers()

	sp := pol.Options.Trace.Child("video.ProcessZoned")
	defer sp.End()
	sp.SetInt("frames", len(seq.Frames))
	sp.SetInt("zones", zones)
	sp.SetString("backend", b.Name())
	mSequences.Inc()

	res := &Result{}
	// The engine runs the governor's floorsFor hook between the
	// per-zone analysis and the β field.
	gov := newGovernor(pol, b.MaxSlew(), make([]float64, 0, zones), make([]float64, zones))

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
		zr, err := eng.ProcessZoned(ctx, frame, opts, b, gov.floorsFor)
		if err != nil {
			gInflight.Add(-1)
			fsp.End()
			if cerr := ctx.Err(); cerr != nil {
				clipErr = cerr
				break
			}
			return nil, fmt.Errorf("video: frame %d: %w", i, err)
		}
		if gov.cutSnap {
			fsp.SetBool("cut_snap", true)
			mCutSnaps.Inc()
		}

		meanTarget := 0.0
		maxRange := 0
		planCached := true
		gov.prev = gov.prev[:0]
		for k := range zr.Zones {
			z := &zr.Zones[k]
			meanTarget += z.TargetBeta
			if z.Range > maxRange {
				maxRange = z.Range
			}
			planCached = planCached && z.PlanCached
			gov.prev = append(gov.prev, z.Beta)
			if invariant.Enabled {
				invariant.AssertBeta("video: zone β", z.Beta)
				if gov.floored && gov.floors[k]-z.Beta > 1e-9 {
					invariant.Assert(false, "video: zone %d β %v fell below its floor %v", k, z.Beta, gov.floors[k])
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

		if gov.slew {
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
				CutSnap:        gov.cutSnap,
				SlewLimited:    gov.slew,
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
