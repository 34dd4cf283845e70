// Package equalize solves the Global Histogram Equalization (GHE)
// problem of Section 4 of the paper: find a monotone pixel
// transformation Φ that maps the cumulative histogram H of the original
// image onto the cumulative uniform histogram U with the desired
// grayscale limits [g_min, g_max], minimizing ∫|U(Φ(x)) − H(x)|dx
// (Eq. 4). The closed-form minimizer is the CDF remapping of Eq. 5,
// whose discrete form (Eq. 7) is implemented here.
//
// The output is both an applicable 8-bit LUT and the exact (fractional)
// transformation curve, which the PLC solver coarsens into the
// hardware-realizable piecewise-linear Λ.
package equalize

import (
	"context"
	"fmt"
	"time"

	"hebs/internal/histogram"
	"hebs/internal/invariant"
	"hebs/internal/obs"
	"hebs/internal/transform"
)

var (
	mSolves  = obs.NewCounter("equalize.solves_total")
	mErrors  = obs.NewCounter("equalize.errors_total")
	mLatency = obs.NewHistogram("equalize.solve.seconds", obs.LatencyBuckets())
)

// Result is a solved GHE instance.
type Result struct {
	// LUT is the quantized transformation Φ ready to apply to pixels.
	LUT *transform.LUT
	// Exact holds the exact transformation evaluated at every input
	// level: Exact[v] is the fractional output level for input v. This
	// is the n-point curve P = {p_1..p_n} of the PLC problem.
	Exact [transform.Levels]float64
	// GMin, GMax are the target grayscale limits.
	GMin, GMax int
}

// Points returns the exact curve as breakpoints (one per input level),
// the ordered set P handed to the PLC dynamic program.
func (r *Result) Points() []transform.Point {
	pts := make([]transform.Point, transform.Levels)
	for v := 0; v < transform.Levels; v++ {
		pts[v] = transform.Point{X: v, Y: r.Exact[v]}
	}
	return pts
}

// Solve computes the GHE transformation for the histogram h and target
// limits [gmin, gmax] (Eq. 5/7):
//
//	Φ(v) = gmin + (gmax − gmin) · (H(v) − H_min) / (N − H_min)
//
// where H is the cumulative histogram and H_min the mass of the lowest
// populated level. Anchoring at H_min makes the lowest populated input
// level map exactly to gmin, so the transformed image attains the full
// target dynamic range gmax − gmin.
func Solve(h *histogram.Histogram, gmin, gmax int) (*Result, error) {
	start := time.Now()
	if h == nil || h.N == 0 {
		mErrors.Inc()
		return nil, fmt.Errorf("equalize: empty histogram")
	}
	if gmin < 0 || gmax > transform.Levels-1 || gmin >= gmax {
		mErrors.Inc()
		return nil, fmt.Errorf("equalize: bad target limits [%d,%d]", gmin, gmax)
	}
	defer func() {
		mSolves.Inc()
		mLatency.ObserveDuration(time.Since(start))
	}()
	cdf := h.CDF()
	hmin := float64(h.Bins[h.MinLevel()])
	n := float64(h.N)
	denom := n - hmin
	res := &Result{GMin: gmin, GMax: gmax}
	span := float64(gmax - gmin)
	for v := 0; v < transform.Levels; v++ {
		var t float64
		if denom > 0 {
			t = (float64(cdf[v]) - hmin) / denom
		} else {
			// Single-level image: everything maps to gmin.
			t = 0
		}
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		res.Exact[v] = float64(gmin) + span*t
	}
	var lut transform.LUT
	for v := 0; v < transform.Levels; v++ {
		lut[v] = quantize(res.Exact[v])
	}
	res.LUT = &lut
	if invariant.Enabled {
		// Eq. 5–7: the CDF remap must be monotone, land inside the
		// target band, and the cumulative histogram must conserve the
		// image's pixel mass.
		invariant.AssertMonotone("equalize: Φ (Eq. 7)", res.Exact[:])
		invariant.AssertInRange("equalize: Φ(0)", res.Exact[0], float64(gmin), float64(gmax))
		invariant.AssertInRange("equalize: Φ(G−1)", res.Exact[transform.Levels-1], float64(gmin), float64(gmax))
		invariant.Assert(cdf[transform.Levels-1] == h.N,
			"equalize: CDF mass %d ≠ N = %d (Eq. 6)", cdf[transform.Levels-1], h.N)
	}
	return res, nil
}

// SolveRange is the HEBS-flavoured entry point: equalize onto [0, R]
// so that the follow-on contrast compensation can spread R levels over
// the full panel swing and the backlight dims to β = R/255.
func SolveRange(h *histogram.Histogram, r int) (*Result, error) {
	if r < 1 || r > transform.Levels-1 {
		return nil, fmt.Errorf("equalize: dynamic range %d outside [1,255]", r)
	}
	return Solve(h, 0, r)
}

// SolveRangeCtx is SolveRange with cooperative cancellation: the
// context is checked before the solve starts (the closed-form CDF
// remap itself is microseconds, so a single entry check suffices). A
// cancelled context returns ctx.Err() without touching the solve
// counters.
func SolveRangeCtx(ctx context.Context, h *histogram.Histogram, r int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return SolveRange(h, r)
}

func quantize(y float64) uint8 {
	v := int(y + 0.5)
	if v < 0 {
		v = 0
	}
	if v > transform.Levels-1 {
		v = transform.Levels - 1
	}
	return uint8(v)
}
