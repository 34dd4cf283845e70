// Package plc solves the Piecewise Linear Coarsening (PLC) problem of
// Section 4.1 of the paper: given the exact transformation curve
// P = {p_1, …, p_n} (one point per grayscale level), approximate it by
// a piecewise-linear curve Λ with only m segments whose endpoints
// Q ⊆ P satisfy q_1 = p_1 and q_m+1 = p_n (Eq. 8), minimizing the mean
// squared error between Φ and Λ.
//
// The solver is the dynamic program of Eq. 9 with per-chord squared
// errors; its complexity is O(m·n²) transitions, matching the paper's
// stated bound. The chord error e(i, j) does not depend on the chord
// count k, so the recurrence runs column-major: for each right
// endpoint j the column e(·, j) is filled once (O(n²) chord
// evaluations per solve), then every chord count k that has a reader
// takes the first minimum of dp[k−1][i] + e(i, j) over i with a
// branch-free scan. Two rows need no scan: row 1 has one reached
// predecessor, and row m is read only at column n−1. m is set by the
// number of controllable reference-voltage sources in the LCD driver
// (Figure 5b), which is what makes small m valuable.
package plc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hebs/internal/invariant"
	"hebs/internal/obs"
	"hebs/internal/transform"
)

var (
	mSolves  = obs.NewCounter("plc.solves_total")
	mErrors  = obs.NewCounter("plc.errors_total")
	mLatency = obs.NewHistogram("plc.solve.seconds", obs.LatencyBuckets())
)

// Result is a solved PLC instance.
type Result struct {
	// Indices are the positions in the input point list chosen as
	// segment endpoints, ascending, always including 0 and n-1.
	// len(Indices) == Segments+1.
	Indices []int
	// Points are the chosen endpoints Q themselves.
	Points []transform.Point
	// Segments is the number of linear segments m.
	Segments int
	// MSE is the mean squared error between the exact curve and the
	// coarsened one, over all n input points (squared level units).
	MSE float64
}

// chordTable evaluates e(i, j) = Σ_{k=i+1..j-1} (chord_{i,j}(x_k) − y_k)²
// — the cost of replacing points i..j by the single line connecting p_i
// to p_j (the e(·) term of Eq. 9) — in O(1) per chord via prefix sums
// of x, x², y, y² and x·y.
type chordTable struct {
	pts                   []transform.Point
	px, pxx, py, pyy, pxy []float64
}

// solveScratch is the reusable DP working set: the chord-table prefix
// sums, the dp/parent matrices and the per-column chord errors. The GHE
// curves the HEBS pipeline coarsens always have n = 256 points and a
// fixed driver segment budget, so a pooled scratch makes repeated
// solves allocation-free. Row 0 of dp and parent stays nil: its one
// reached cell, dp[0][0] = 0, is folded into row 1's closed form.
type solveScratch struct {
	n, m   int
	table  chordTable
	dp     [][]float64
	parent [][]int
	col    []float64 // col[i] = e(i, j) for the column j being solved
}

var scratchPool sync.Pool

func getScratch(n, m int) *solveScratch {
	if v := scratchPool.Get(); v != nil {
		s := v.(*solveScratch)
		if s.n == n && s.m == m {
			return s
		}
		// Dimensions changed: drop the stale scratch.
	}
	s := &solveScratch{
		n: n, m: m,
		table: chordTable{
			px:  make([]float64, n+1),
			pxx: make([]float64, n+1),
			py:  make([]float64, n+1),
			pyy: make([]float64, n+1),
			pxy: make([]float64, n+1),
		},
		dp:     make([][]float64, m+1),
		parent: make([][]int, m+1),
		col:    make([]float64, n),
	}
	for k := 1; k <= m; k++ {
		s.dp[k] = make([]float64, n)
		s.parent[k] = make([]int, n)
	}
	return s
}

func putScratch(s *solveScratch) { scratchPool.Put(s) }

// fill recomputes the prefix sums for pts. Index 0 of each prefix
// array is the zero base case; the loop overwrites indices 1..n.
func (t *chordTable) fill(pts []transform.Point) {
	t.pts = pts
	t.px[0], t.pxx[0], t.py[0], t.pyy[0], t.pxy[0] = 0, 0, 0, 0, 0
	for k, p := range pts {
		x, y := float64(p.X), p.Y
		t.px[k+1] = t.px[k] + x
		t.pxx[k+1] = t.pxx[k] + x*x
		t.py[k+1] = t.py[k] + y
		t.pyy[k+1] = t.pyy[k] + y*y
		t.pxy[k+1] = t.pxy[k] + x*y
	}
}

// chordErr is the one copy of the e(i, j) formula, given the chord's
// end points (xi, yi) and (xj, yj) and the sums Σx, Σx², Σy, Σy², Σxy
// over its cnt interior points. Writing s for the chord slope,
// d_k = x_k − x_i and e_k = y_k − y_i:
//
//	e(i,j) = Σ (s·d_k − e_k)² = s²·Σd_k² − 2s·Σd_k e_k + Σe_k²
//
// with Σd² = Σx² − 2xiΣx + cnt·xi², Σde = Σxy − xiΣy − yiΣx + cnt·xi·yi
// and Σe² = Σy² − 2yiΣy + cnt·yi². A negative result is float
// cancellation on a near-collinear stretch; max turns it, and −0, into
// +0, so e is +0 or more, +Inf or NaN (from extreme or non-finite Y).
// Row 1 stores e(0, j) as a dp value without adding it to +0, and
// argmin orders sums by their bits, so neither may meet a −0.
func chordErr(xi, yi, xj, yj, cnt, sx, sxx, sy, syy, sxy float64) float64 {
	s := (yj - yi) / (xj - xi) // X strictly increasing: no division by zero
	sd2 := sxx - 2*xi*sx + cnt*xi*xi
	sde := sxy - xi*sy - yi*sx + cnt*xi*yi
	se2 := syy - 2*yi*sy + cnt*yi*yi
	return max(s*s*sd2-2*s*sde+se2, 0)
}

// column sets col[i] = e(i, j) for every i < j = len(col). The right
// end's point and prefix sums are hoisted out of the loop; the interior
// sums over k = i+1 .. j−1 are differences of prefix sums at j and i+1.
// The adjacent chord (j−1, j) has no interior point and costs 0.
//
//hebs:noalloc
func (t *chordTable) column(col []float64) {
	j := len(col)
	xj, yj := float64(t.pts[j].X), t.pts[j].Y
	pxj, pxxj, pyj, pyyj, pxyj := t.px[j], t.pxx[j], t.py[j], t.pyy[j], t.pxy[j]
	pts := t.pts[:j-1]
	px, pxx, py, pyy, pxy := t.px[1:j], t.pxx[1:j], t.py[1:j], t.pyy[1:j], t.pxy[1:j]
	px, pxx, py, pyy, pxy = px[:len(pts)], pxx[:len(pts)], py[:len(pts)], pyy[:len(pts)], pxy[:len(pts)]
	e := col[:len(pts)]
	for i, p := range pts {
		e[i] = chordErr(float64(p.X), p.Y, xj, yj, float64(j-i-1),
			pxj-px[i], pxxj-pxx[i], pyj-py[i], pyyj-pyy[i], pxyj-pxy[i])
	}
	col[j-1] = 0
}

// unreached marks a dp cell with no candidate below it, as in the
// plain recurrence: a candidate sum is accepted only when it is below
// MaxFloat64, so an +Inf or NaN sum (from extreme or non-finite Y)
// leaves the cell unreached.
const unreached = math.MaxFloat64

// argmin returns the minimum of c_i = prev[i] + col[i] over
// lo ≤ i < len(col) and the first i that attains it, or (unreached, −1)
// when no c_i is below MaxFloat64.
//
// The pair does not depend on the scan order, so the scan needs no
// prune and no branch. Every c_i is +0 or more, +Inf or NaN: so is
// every chord error, a reached dp cell is a sum of them, and an
// unreached one is MaxFloat64. On those values Float64bits orders
// exactly like the value, and +Inf and NaN order above MaxFloat64, so
// starting the best at MaxFloat64's bits and keeping a strict uint64 <
// reproduces the float recurrence's acceptance rule. Both updates
// compile to conditional moves. Two chains take the even and odd
// offsets from lo, each keeping its first minimum, and the merge sends
// a tie to the smaller index.
//
//hebs:noalloc
func argmin(prev, col []float64, lo int) (float64, int) {
	prev = prev[:len(col)]
	b0, b1 := math.Float64bits(unreached), math.Float64bits(unreached)
	i0, i1 := -1, -1
	i := lo
	for ; i+1 < len(col); i += 2 {
		c0 := math.Float64bits(prev[i] + col[i])
		c1 := math.Float64bits(prev[i+1] + col[i+1])
		if c0 < b0 {
			b0, i0 = c0, i
		}
		if c1 < b1 {
			b1, i1 = c1, i+1
		}
	}
	if i < len(col) {
		if c0 := math.Float64bits(prev[i] + col[i]); c0 < b0 {
			b0, i0 = c0, i
		}
	}
	if b1 < b0 || b1 == b0 && i1 < i0 {
		b0, i0 = b1, i1
	}
	return math.Float64frombits(b0), i0
}

// solveCell sets dp[k][j] and parent[k][j] from the filled column
// col[:j] = e(·, j) and row k−1's cells left of j.
func (s *solveScratch) solveCell(k, j int) {
	best, bestI := float64(unreached), -1
	if k > 1 {
		best, bestI = argmin(s.dp[k-1], s.col[:j], k-1)
	} else if e := s.col[0]; e < unreached {
		// dp[0][i] is unreached for every i > 0, so row 1's one
		// candidate is i = 0 with c = 0 + e(0, j) = e(0, j).
		best, bestI = e, 0
	}
	s.dp[k][j] = best
	s.parent[k][j] = bestI
}

// Coarsen solves PLC for the given exact curve and segment budget m.
// The input points must have strictly increasing X and at least two
// entries; m must satisfy 1 <= m <= len(pts)-1.
func Coarsen(pts []transform.Point, m int) (*Result, error) {
	return CoarsenCtx(context.Background(), nil, pts, m)
}

// CoarsenCtx is Coarsen with the solve's observability spans nested
// under parentSpan (nil for a root span; with no sink installed
// tracing is free) and cooperative cancellation. The chord-table
// precomputation and the DP sweep get separate child spans so profiles
// attribute the O(n) prefix sums vs the O(m·n²) transitions.
//
// The DP runs the right endpoint j outermost. dp[k][j] reads only
// dp[k-1][i] for i < j, which earlier columns have already finalized,
// so each column fills col[i] = e(i, j) once and every chord count
// that has a reader reuses it. Row 1 is closed-form: its only reached
// predecessor is dp[0][0] = 0. Row m is solved at column n−1 alone,
// where the parent walk starts; rows below m at column n−1 and row m
// left of it have no reader. Every other cell takes argmin's first
// minimum, which is exactly what the plain k-outer recurrence keeps
// with its ascending scan and strict <, so Indices and MSE are
// bit-identical to it. Every cell read is written first in the same
// solve, so the pooled dp and parent need no reset.
// Knuth, SMAWK and divide-and-conquer speedups are not used: they need
// a quadrangle inequality that chord interpolation error is not known
// to satisfy, so they could return a different Λ.
//
// The DP is the pipeline's heaviest CPU stage, so ctx is checked once
// per column and the context error is returned as soon as cancellation
// is observed.
func CoarsenCtx(ctx context.Context, parentSpan *obs.Span, pts []transform.Point, m int) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(pts)
	if n < 2 {
		mErrors.Inc()
		return nil, errors.New("plc: need at least two points")
	}
	for i := 1; i < n; i++ {
		if pts[i].X <= pts[i-1].X {
			mErrors.Inc()
			return nil, fmt.Errorf("plc: X not strictly increasing at %d", i)
		}
	}
	if m < 1 || m > n-1 {
		mErrors.Inc()
		return nil, fmt.Errorf("plc: segment count %d outside [1,%d]", m, n-1)
	}
	sp := parentSpan.Child("plc.Coarsen")
	defer sp.End()
	sp.SetInt("points", n)
	sp.SetInt("segments", m)

	scratch := getScratch(n, m)
	defer putScratch(scratch)

	tableSpan := sp.Child("plc.chord_table")
	scratch.table.fill(pts)
	tableSpan.End()

	// dp[k][j]: minimal total squared error covering points 0..j with k
	// chords ending exactly at j. parent[k][j] reconstructs the split.
	dpSpan := sp.Child("plc.dp")
	var ctxErr error
	for j := 1; j < n; j++ {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		scratch.table.column(scratch.col[:j])
		if j == n-1 {
			scratch.solveCell(m, j)
			break
		}
		for k := 1; k < m && k <= j; k++ {
			scratch.solveCell(k, j)
		}
	}
	dpSpan.End()
	if ctxErr != nil {
		return nil, ctxErr
	}
	dp, parent := scratch.dp, scratch.parent
	//hebslint:allow floateq MaxFloat64 is an exact "unreached" marker
	if dp[m][n-1] == unreached {
		mErrors.Inc()
		return nil, fmt.Errorf("plc: no feasible %d-segment cover", m)
	}
	// Reconstruct endpoint indices.
	idx := make([]int, m+1)
	j := n - 1
	for k := m; k >= 1; k-- {
		idx[k] = j
		j = parent[k][j]
	}
	idx[0] = 0
	res := &Result{
		Indices:  idx,
		Segments: m,
		MSE:      dp[m][n-1] / float64(n),
	}
	res.Points = make([]transform.Point, len(idx))
	for i, id := range idx {
		res.Points[i] = pts[id]
	}
	sp.SetFloat("mse", res.MSE)
	if invariant.Enabled {
		checkCoarsenInvariants(pts, m, res)
	}
	mSolves.Inc()
	mLatency.ObserveDuration(time.Since(start))
	return res, nil
}

// LUT renders the coarsened curve into an applicable 8-bit LUT. The
// input curve must span the full [0,255] domain for this to be valid
// (which GHE curves always do); otherwise an error is returned by the
// underlying transform.Piecewise.
func (r *Result) LUT() (*transform.LUT, error) {
	return transform.Piecewise(r.Points)
}

// CurveMSE evaluates the mean squared error between an arbitrary
// piecewise-linear approximation (given by its endpoint subset) and the
// exact curve — used by tests to cross-check the DP's optimality.
func CurveMSE(pts []transform.Point, indices []int) (float64, error) {
	if len(indices) < 2 || indices[0] != 0 || indices[len(indices)-1] != len(pts)-1 {
		return 0, errors.New("plc: indices must span the curve")
	}
	total := 0.0
	for s := 0; s+1 < len(indices); s++ {
		i, j := indices[s], indices[s+1]
		if j <= i {
			return 0, errors.New("plc: indices not increasing")
		}
		xi, yi := float64(pts[i].X), pts[i].Y
		xj, yj := float64(pts[j].X), pts[j].Y
		slope := (yj - yi) / (xj - xi)
		for k := i + 1; k < j; k++ {
			pred := yi + slope*(float64(pts[k].X)-xi)
			d := pred - pts[k].Y
			total += d * d
		}
	}
	return total / float64(len(pts)), nil
}
