package video

import "math"

// governor is the temporal β policy of both clip walks, a fast-attack /
// slow-decay track over a β field: one entry for the classic lamp, one
// per zone. Brightening is immediate (a β below its target breaks the
// frame's budget); dimming is limited to step per frame, MaxStep ∩ the
// backend's MaxSlew (0 is unlimited on either side). A mean
// |target − prev| above cut is a scene cut, which masks the flicker, so
// the field snaps to its targets.
type governor struct {
	step, cut float64
	// prev is the last applied field (empty before the first frame);
	// floors is floorsFor's scratch.
	prev, floors []float64
	// The last floorsFor decision: floors returned, a cut snap, and
	// some floor above its own target (the frame is slew-limited).
	floored, cutSnap, slew bool
}

// newGovernor returns pol's governor; prev has cap, and floors len, the
// field size.
func newGovernor(pol Policy, hwSlew float64, prev, floors []float64) governor {
	step := pol.MaxStep
	if step <= 0 || hwSlew > 0 && hwSlew < step {
		step = hwSlew
	}
	return governor{step: step, cut: pol.CutThreshold, prev: prev, floors: floors}
}

// floorsFor returns the per-entry floors max(prev − step, 0), or nil on
// the first frame, without a step, or at a cut. It is the zoned walk's
// core.ZoneFloors hook.
//
//hebs:noalloc
func (g *governor) floorsFor(targets []float64) []float64 {
	g.floored, g.cutSnap, g.slew = false, false, false
	if len(g.prev) != len(targets) || g.step <= 0 {
		return nil
	}
	if g.cut > 0 {
		delta := 0.0
		for k, t := range targets {
			delta += math.Abs(t - g.prev[k])
		}
		if g.cutSnap = delta/float64(len(targets)) > g.cut; g.cutSnap {
			return nil
		}
	}
	for k, p := range g.prev {
		g.floors[k] = max(p-g.step, 0)
		g.slew = g.slew || g.floors[k] > targets[k]
	}
	g.floored = true
	return g.floors
}
