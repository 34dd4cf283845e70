package main

import (
	"math"
	"slices"
)

// minP90Samples is the fewest ops a measured run may hold: it leaves at
// least ten ops beyond the 90th percentile.
const minP90Samples = 100

// nearestRank returns the q-quantile (0 < q ≤ 1) of xs by the
// nearest-rank method: the smallest sample with at least a q share of
// the samples at or below it. xs must be non-empty; it is not modified.
func nearestRank(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q * float64(len(s))))
	return s[min(max(k, 1), len(s))-1]
}

// median is the nearest-rank median (the lower middle for even counts).
func median(xs []float64) float64 { return nearestRank(xs, 0.5) }

// quartileDistance is the distance between the nearest-rank first and
// third quartiles of xs (0 for fewer than two values).
func quartileDistance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return nearestRank(xs, 0.75) - nearestRank(xs, 0.25)
}

// spread is the run-to-run spread of repeated measurements: the
// distance between their quartiles as a share of their median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return quartileDistance(xs) / math.Abs(m)
}

// bound is how far a metric may worsen before a change counts as a
// regression: a share of the baseline value, or absolute points.
type bound struct {
	better string // "lower" or "higher"
	limit  float64
	points bool // limit is in the metric's own units, not a share
}

// worsening returns how much b is worse than the baseline a, in the
// bound's terms (a share of a, or points); negative means better.
func (bd bound) worsening(a, b float64) float64 {
	d := b - a
	if bd.better == "higher" {
		d = -d
	}
	if bd.points {
		return d
	}
	if a == 0 {
		if d > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return d / math.Abs(a)
}

// verdict classifies a change from a to b whose run-to-run spread
// (a share of the value, or points for a points bound) is sp: a spread
// wider than the bound leaves the change unresolved, otherwise it is
// worse when it exceeds the bound and ok when it does not.
func (bd bound) verdict(a, b, sp float64) string {
	switch {
	case sp > bd.limit:
		return "unresolved"
	case bd.worsening(a, b) > bd.limit:
		return "worse"
	default:
		return "ok"
	}
}
