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
// endpoint j the column e(·, j) is evaluated once (O(n²) chord
// evaluations per solve), then every k ≤ min(m, j) reads it. An exact prune skips any predecessor whose own cost
// already reaches the best candidate, since e ≥ 0 cannot bring it
// back under. m is set by the number of controllable reference-voltage
// sources in the LCD driver (Figure 5b), which is what makes small m
// valuable.
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
// to p_j (the e(·) term of Eq. 9) — in O(1) per query via prefix sums.
//
// Writing s for the chord slope, d_k = x_k − x_i and e_k = y_k − y_i:
//
//	e(i,j) = Σ (s·d_k − e_k)² = s²·Σd_k² − 2s·Σd_k e_k + Σe_k²
//
// and each Σ over k expands into prefix sums of x, x², y, y², x·y.
type chordTable struct {
	pts                   []transform.Point
	px, pxx, py, pyy, pxy []float64
}

// solveScratch is the reusable DP working set: the chord-table prefix
// sums, the dp/parent matrices and the per-column chord errors. The GHE
// curves the HEBS pipeline coarsens always have n = 256 points and a
// fixed driver segment budget, so a pooled scratch makes repeated
// solves allocation-free.
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
	for k := range s.dp {
		s.dp[k] = make([]float64, n)
		s.parent[k] = make([]int, n)
	}
	return s
}

func putScratch(s *solveScratch) { scratchPool.Put(s) }

// newChordTable allocates and fills a standalone chord table outside
// the scratch pool.
func newChordTable(pts []transform.Point) *chordTable {
	n := len(pts)
	t := &chordTable{
		px:  make([]float64, n+1),
		pxx: make([]float64, n+1),
		py:  make([]float64, n+1),
		pyy: make([]float64, n+1),
		pxy: make([]float64, n+1),
	}
	t.fill(pts)
	return t
}

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

// at returns e(i, j) for i < j.
func (t *chordTable) at(i, j int) float64 {
	if j-i < 2 {
		return 0
	}
	xi, yi := float64(t.pts[i].X), t.pts[i].Y
	xj, yj := float64(t.pts[j].X), t.pts[j].Y
	s := (yj - yi) / (xj - xi) // X strictly increasing: no division by zero
	// Interior sums over k = i+1 .. j-1.
	lo, hi := i+1, j
	cnt := float64(hi - lo)
	sx := t.px[hi] - t.px[lo]
	sxx := t.pxx[hi] - t.pxx[lo]
	sy := t.py[hi] - t.py[lo]
	syy := t.pyy[hi] - t.pyy[lo]
	sxy := t.pxy[hi] - t.pxy[lo]
	// Σd² = Σx² − 2xiΣx + n·xi² ; Σde = Σxy − xiΣy − yiΣx + n·xi·yi ;
	// Σe² = Σy² − 2yiΣy + n·yi².
	sd2 := sxx - 2*xi*sx + cnt*xi*xi
	sde := sxy - xi*sy - yi*sx + cnt*xi*yi
	se2 := syy - 2*yi*sy + cnt*yi*yi
	e := s*s*sd2 - 2*s*sde + se2
	if e < 0 {
		// Float cancellation on near-collinear stretches.
		e = 0
	}
	return e
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
// k = 1..min(m, j) reuses it. A candidate i with dp[k-1][i] >= best is
// skipped: e ≥ 0 (the table clamps it) and float addition is
// monotone, so its sum cannot beat the strict < that picks a winner.
// The i order and the first-minimum tie-break are those of the plain
// k-outer recurrence, so Indices and MSE are bit-identical to it.
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
	cerr := &scratch.table
	tableSpan.End()

	// dp[k][j]: minimal total squared error covering points 0..j with k
	// chords ending exactly at j. parent[k][j] reconstructs the split.
	dpSpan := sp.Child("plc.dp")
	const inf = math.MaxFloat64
	dp, parent := scratch.dp, scratch.parent
	for k := range dp {
		for j := range dp[k] {
			dp[k][j] = inf
			parent[k][j] = -1
		}
	}
	dp[0][0] = 0
	col := scratch.col
	var ctxErr error
	for j := 1; j < n; j++ {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		cj := col[:j]
		for i := range cj {
			cj[i] = cerr.at(i, j)
		}
		for k := 1; k <= m && k <= j; k++ {
			prev := dp[k-1][:j]
			best := inf
			bestI := -1
			for i := k - 1; i < j; i++ {
				// Exact prune: cj[i] >= 0, so prev[i] + cj[i] >= best.
				// It also skips unreached (inf) predecessors.
				if prev[i] >= best {
					continue
				}
				c := prev[i] + cj[i]
				if c < best {
					best = c
					bestI = i
				}
			}
			dp[k][j] = best
			parent[k][j] = bestI
		}
	}
	dpSpan.End()
	if ctxErr != nil {
		return nil, ctxErr
	}
	//hebslint:allow floateq MaxFloat64 is an exact "unreached" marker
	if dp[m][n-1] == inf {
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
