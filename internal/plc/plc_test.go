package plc

import (
	"context"
	"errors"
	"fmt"
	"image"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hebs/internal/equalize"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/invariant"
	"hebs/internal/rng"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// linePts samples y = a·x + b at n integer points.
func linePts(n int, a, b float64) []transform.Point {
	pts := make([]transform.Point, n)
	for i := range pts {
		pts[i] = transform.Point{X: i, Y: a*float64(i) + b}
	}
	return pts
}

func TestCoarsenExactLine(t *testing.T) {
	pts := linePts(100, 0.5, 3)
	r, err := Coarsen(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.MSE > 1e-18 {
		t.Errorf("line MSE = %v, want 0", r.MSE)
	}
	if len(r.Indices) != 2 || r.Indices[0] != 0 || r.Indices[1] != 99 {
		t.Errorf("indices = %v, want [0 99]", r.Indices)
	}
	if r.Segments != 1 {
		t.Errorf("segments = %d, want 1", r.Segments)
	}
}

func TestCoarsenVShape(t *testing.T) {
	// A perfect V needs exactly 2 segments with the corner as endpoint.
	pts := make([]transform.Point, 21)
	for i := range pts {
		y := float64(i)
		if i > 10 {
			y = float64(20 - i)
		}
		pts[i] = transform.Point{X: i, Y: y}
	}
	r, err := Coarsen(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.MSE > 1e-18 {
		t.Errorf("V-shape 2-segment MSE = %v, want 0", r.MSE)
	}
	if r.Indices[1] != 10 {
		t.Errorf("corner endpoint = %d, want 10", r.Indices[1])
	}
	// One segment cannot be exact.
	r1, err := Coarsen(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.MSE <= 0 {
		t.Errorf("1-segment V MSE = %v, want > 0", r1.MSE)
	}
}

func TestCoarsenMSEMonotoneInSegments(t *testing.T) {
	// More segments never hurt.
	pts := make([]transform.Point, 64)
	for i := range pts {
		pts[i] = transform.Point{X: i, Y: math.Sin(float64(i)/5) * 30}
	}
	prev := math.Inf(1)
	for _, m := range []int{1, 2, 4, 8, 16, 32} {
		r, err := Coarsen(pts, m)
		if err != nil {
			t.Fatal(err)
		}
		if r.MSE > prev+1e-12 {
			t.Errorf("MSE rose from %v to %v at m=%d", prev, r.MSE, m)
		}
		prev = r.MSE
	}
	// Full budget (n-1 segments) is exact.
	r, err := Coarsen(pts, len(pts)-1)
	if err != nil {
		t.Fatal(err)
	}
	if r.MSE > 1e-18 {
		t.Errorf("full-budget MSE = %v, want 0", r.MSE)
	}
}

func TestCoarsenEndpointsFixed(t *testing.T) {
	pts := linePts(50, 1, 0)
	pts[25].Y = 40 // a bump
	r, err := Coarsen(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Indices[0] != 0 || r.Indices[len(r.Indices)-1] != 49 {
		t.Errorf("endpoints not fixed: %v", r.Indices)
	}
	if r.Points[0] != pts[0] || r.Points[len(r.Points)-1] != pts[49] {
		t.Error("endpoint points not preserved")
	}
	for i := 1; i < len(r.Indices); i++ {
		if r.Indices[i] <= r.Indices[i-1] {
			t.Fatalf("indices not increasing: %v", r.Indices)
		}
	}
}

func TestCoarsenErrors(t *testing.T) {
	if _, err := Coarsen(nil, 1); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Coarsen(linePts(1, 1, 0), 1); err == nil {
		t.Error("single point should error")
	}
	if _, err := Coarsen(linePts(10, 1, 0), 0); err == nil {
		t.Error("m=0 should error")
	}
	if _, err := Coarsen(linePts(10, 1, 0), 10); err == nil {
		t.Error("m > n-1 should error")
	}
	bad := []transform.Point{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 5, Y: 2}}
	if _, err := Coarsen(bad, 1); err == nil {
		t.Error("non-increasing X should error")
	}
}

func TestCoarsenOptimalVsBruteForce(t *testing.T) {
	// Exhaustively check optimality on a small irregular curve.
	ys := []float64{0, 3, 1, 7, 2, 9, 4, 11, 5}
	pts := make([]transform.Point, len(ys))
	for i, y := range ys {
		pts[i] = transform.Point{X: i, Y: y}
	}
	n := len(pts)
	for m := 1; m <= 4; m++ {
		r, err := Coarsen(pts, m)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: all (n-2 choose m-1) interior endpoint subsets.
		best := math.Inf(1)
		var rec func(start int, chosen []int)
		rec = func(start int, chosen []int) {
			if len(chosen) == m-1 {
				idx := append([]int{0}, chosen...)
				idx = append(idx, n-1)
				v, err := CurveMSE(pts, idx)
				if err == nil && v < best {
					best = v
				}
				return
			}
			for i := start; i < n-1; i++ {
				rec(i+1, append(chosen, i))
			}
		}
		rec(1, nil)
		if math.Abs(r.MSE-best) > 1e-12 {
			t.Errorf("m=%d: DP MSE %v != brute force %v", m, r.MSE, best)
		}
	}
}

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

// at returns e(i, j) for i < j through chordErr, one chord at a time:
// the per-query form the reference recurrence reads.
func (t *chordTable) at(i, j int) float64 {
	if j-i < 2 {
		return 0
	}
	lo, hi := i+1, j
	return chordErr(float64(t.pts[i].X), t.pts[i].Y, float64(t.pts[j].X), t.pts[j].Y,
		float64(hi-lo), t.px[hi]-t.px[lo], t.pxx[hi]-t.pxx[lo], t.py[hi]-t.py[lo],
		t.pyy[hi]-t.pyy[lo], t.pxy[hi]-t.pxy[lo])
}

// coarsenReference is the plain k-outer Eq. 9 recurrence, kept as the
// differential oracle for CoarsenCtx's column-major loop: it evaluates
// e(i, j) afresh for every chord count and cell, skips only unreached
// predecessors and compares floats. It keeps the first strict minimum
// of an ascending scan, which is the pair CoarsenCtx's branch-free
// argmin returns, so their Indices and MSE must agree bit for bit, not
// merely within a tolerance.
func coarsenReference(pts []transform.Point, m int) (indices []int, mse float64) {
	n := len(pts)
	cerr := newChordTable(pts)
	const inf = math.MaxFloat64
	dp := make([][]float64, m+1)
	parent := make([][]int, m+1)
	for k := range dp {
		dp[k] = make([]float64, n)
		parent[k] = make([]int, n)
		for j := range dp[k] {
			dp[k][j] = inf
			parent[k][j] = -1
		}
	}
	dp[0][0] = 0
	for k := 1; k <= m; k++ {
		for j := k; j < n; j++ {
			best := inf
			bestI := -1
			for i := k - 1; i < j; i++ {
				//hebslint:allow floateq MaxFloat64 is an exact "unreached" marker
				if dp[k-1][i] == inf {
					continue
				}
				c := dp[k-1][i] + cerr.at(i, j)
				if c < best {
					best = c
					bestI = i
				}
			}
			dp[k][j] = best
			parent[k][j] = bestI
		}
	}
	//hebslint:allow floateq MaxFloat64 is an exact "unreached" marker
	if dp[m][n-1] == inf {
		return nil, inf // no feasible cover: Coarsen reports an error
	}
	indices = make([]int, m+1)
	j := n - 1
	for k := m; k >= 1; k-- {
		indices[k] = j
		j = parent[k][j]
	}
	return indices, dp[m][n-1] / float64(n)
}

// sameAsReference reports how r differs from coarsenReference on the
// same instance, or "" when Indices and the MSE bits are equal. A nil r
// (a failed solve) matches only a reference with no feasible cover.
func sameAsReference(pts []transform.Point, m int, r *Result) string {
	idx, mse := coarsenReference(pts, m)
	switch {
	case r == nil && idx == nil:
		return ""
	case r == nil:
		return fmt.Sprintf("solve failed, reference %v", idx)
	case idx == nil:
		return fmt.Sprintf("indices %v, reference has no feasible cover", r.Indices)
	}
	if !slices.Equal(r.Indices, idx) {
		return fmt.Sprintf("indices %v, reference %v", r.Indices, idx)
	}
	if math.Float64bits(r.MSE) != math.Float64bits(mse) {
		return fmt.Sprintf("MSE %v (bits %#x), reference %v (bits %#x)",
			r.MSE, math.Float64bits(r.MSE), mse, math.Float64bits(mse))
	}
	return ""
}

// fbmImage is a seeded fractal-noise still, the texture family the
// pipeline tests coarsen alongside the sipi suite.
func fbmImage(size int, seed uint64) *gray.Image {
	m := gray.New(size, size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			m.Set(x, y, uint8(255*rng.FBM(float64(x)/13, float64(y)/13, 4, seed)))
		}
	}
	return m
}

// gheCurve is the 256-point exact transformation curve Φ that the
// pipeline hands to PLC for img at dynamic range r.
func gheCurve(t testing.TB, img *gray.Image, r int) []transform.Point {
	t.Helper()
	res, err := equalize.SolveRange(histogram.Of(img), r)
	if err != nil {
		t.Fatal(err)
	}
	return res.Points()
}

// TestCoarsenMatchesReference is the differential oracle for the
// column-major DP: on the GHE curves of the sipi suite and of seeded
// FBM stills, across dynamic ranges and segment budgets, CoarsenCtx
// must return exactly the endpoints and MSE bits of the k-outer loop.
func TestCoarsenMatchesReference(t *testing.T) {
	suite, err := sipi.Suite(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		name string
		img  *gray.Image
	}
	var imgs []named
	for _, s := range suite {
		imgs = append(imgs, named{s.Name, s.Image})
	}
	for seed := uint64(1); seed <= 6; seed++ {
		imgs = append(imgs, named{fmt.Sprintf("fbm%d", seed), fbmImage(64, seed)})
	}
	for _, im := range imgs {
		for _, r := range []int{40, 100, 150, 220, 255} {
			pts := gheCurve(t, im.img, r)
			for _, m := range []int{1, 2, 5, 10, 16} {
				res, err := Coarsen(pts, m)
				if err != nil {
					t.Fatalf("%s R=%d m=%d: %v", im.name, r, m, err)
				}
				if d := sameAsReference(pts, m, res); d != "" {
					t.Errorf("%s R=%d m=%d: %s", im.name, r, m, d)
				}
			}
		}
	}
}

// TestCoarsenTiesMatchReference holds CoarsenCtx to the reference on
// curves where many candidate sums tie exactly, at the pipeline's
// n = 256: a constant, a staircase, and the GHE curves of 16² and 32²
// sipi crops rounded to integers, whose flat stretches and integer
// chord errors give equal sums at different predecessors. The first
// index must win every tie, in either argmin chain and across the
// merge. The extreme-Y curve puts 1e300, +Inf, −Inf and NaN in the
// tail: every chord with one of them as an end or interior point, and
// every chord past the overflowing prefix sums, costs +Inf or NaN, so
// row 1 leaves those cells unreached and only the six adjacent chords
// (cost 0) cross the tail from point 249. Budgets below 7 then have no
// feasible cover, which the solve must report as the reference does.
// Every curve runs at m ∈ {1, 2, 10}. m = n−1 admits only the cover by
// adjacent chords, so it holds no tie; the O(n³) reference checks that
// edge on the constant and extreme curves alone.
func TestCoarsenTiesMatchReference(t *testing.T) {
	const n = 256
	curve := func(y func(i int) float64) []transform.Point {
		pts := make([]transform.Point, n)
		for i := range pts {
			pts[i] = transform.Point{X: i, Y: y(i)}
		}
		return pts
	}
	type named struct {
		name string
		pts  []transform.Point
		edge bool // also solve at m = n−1
	}
	curves := []named{
		{"constant", curve(func(int) float64 { return 37 }), true},
		{"staircase", curve(func(i int) float64 { return float64(i / 16 * 16) }), false},
	}
	extreme := curve(func(i int) float64 { return float64(i / 8) })
	extreme[250].Y, extreme[252].Y, extreme[253].Y, extreme[254].Y = 1e300, math.Inf(1), math.Inf(-1), math.NaN()
	curves = append(curves, named{"extreme", extreme, true})
	suite, err := sipi.Suite(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []int{16, 32} {
		for _, s := range suite {
			crop, err := s.Image.SubImage(image.Rect(16, 16, 16+side, 16+side))
			if err != nil {
				t.Fatal(err)
			}
			pts := gheCurve(t, crop, 200)
			for i := range pts {
				pts[i].Y = math.Round(pts[i].Y)
			}
			curves = append(curves, named{fmt.Sprintf("%s/%d²", s.Name, side), pts, false})
		}
	}
	for _, c := range curves {
		budgets := []int{1, 2, 10}
		if c.edge {
			budgets = append(budgets, n-1)
		}
		for _, m := range budgets {
			res, err := Coarsen(c.pts, m)
			if err != nil && res != nil {
				t.Fatalf("%s m=%d: error %v with a result", c.name, m, err)
			}
			if d := sameAsReference(c.pts, m, res); d != "" {
				t.Errorf("%s m=%d: %s (err %v)", c.name, m, d, err)
			}
		}
	}
}

// countdownCtx is a never-done context whose Err turns to
// context.Canceled after `left` nil answers, so a test can land the
// cancellation at an exact point inside the DP.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCoarsenCtxCancel cancels a solve before it starts and in the
// middle of the DP. Both must return context.Canceled and no result,
// and the next solve, which takes the same pooled scratch, must still
// equal the reference: a cancelled walk leaves no dp, parent or col
// state that a later solve could pick up.
func TestCoarsenCtxCancel(t *testing.T) {
	pts := gheCurve(t, fbmImage(64, 3), 150)
	next := gheCurve(t, fbmImage(64, 4), 220)
	const m = 10
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
	}{
		{"pre-cancelled", pre},
		// One Err call on entry, then one per column: the cancel lands
		// at column 100 of 255, with rows 1..10 of dp partly filled.
		{"mid-DP", &countdownCtx{Context: context.Background(), left: 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := CoarsenCtx(tc.ctx, nil, pts, m)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatalf("cancelled solve returned a result: %+v", res)
			}
			for _, p := range [][]transform.Point{next, pts} {
				r, err := Coarsen(p, m)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameAsReference(p, m, r); d != "" {
					t.Errorf("solve after cancel: %s", d)
				}
			}
		})
	}
	// A pooled scratch full of garbage must not change the next solve:
	// the DP resets or overwrites everything it reads.
	const garbage = -1e9
	s := getScratch(len(next), m)
	for k := range s.dp {
		for j := range s.dp[k] {
			s.dp[k][j] = garbage
			s.parent[k][j] = 7
		}
	}
	for i := range s.col {
		s.col[i] = garbage
	}
	putScratch(s)
	r, err := Coarsen(next, m)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameAsReference(next, m, r); d != "" {
		t.Errorf("solve on a poisoned scratch: %s", d)
	}
}

// TestCoarsenAllocs pins a pooled solve of the pipeline's shape (a
// 256-point GHE curve, the driver's m = 10) to its three result
// allocations: the Result, its Indices and its Points. The DP working
// set, the per-column chord errors included, comes from solveScratch.
func TestCoarsenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled scratch at random")
	}
	if invariant.Enabled {
		t.Skip("hebscheck assertions allocate on every solve")
	}
	pts := gheCurve(t, fbmImage(128, 3), 150)
	if _, err := Coarsen(pts, 10); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Coarsen(pts, 10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Errorf("Coarsen allocates %v objects per solve, want 3 (Result, Indices, Points)", allocs)
	}
}

func TestCurveMSEConsistentWithResult(t *testing.T) {
	pts := make([]transform.Point, 40)
	for i := range pts {
		pts[i] = transform.Point{X: i, Y: float64((i * i) % 17)}
	}
	r, err := Coarsen(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	v, err := CurveMSE(pts, r.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-r.MSE) > 1e-12 {
		t.Errorf("CurveMSE %v != Result.MSE %v", v, r.MSE)
	}
}

func TestCurveMSEErrors(t *testing.T) {
	pts := linePts(10, 1, 0)
	if _, err := CurveMSE(pts, []int{0}); err == nil {
		t.Error("too few indices should error")
	}
	if _, err := CurveMSE(pts, []int{1, 9}); err == nil {
		t.Error("not starting at 0 should error")
	}
	if _, err := CurveMSE(pts, []int{0, 5}); err == nil {
		t.Error("not ending at n-1 should error")
	}
	if _, err := CurveMSE(pts, []int{0, 5, 5, 9}); err == nil {
		t.Error("non-increasing indices should error")
	}
}

func TestLUTFromGHECurve(t *testing.T) {
	// End-to-end: equalize a noisy image, coarsen to 8 segments, render
	// a LUT; it must be monotone and match the exact curve closely.
	res, err := equalize.SolveRange(histogram.Of(fbmImage(64, 77)), 180)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Coarsen(res.Points(), 8)
	if err != nil {
		t.Fatal(err)
	}
	lut, err := coarse.LUT()
	if err != nil {
		t.Fatal(err)
	}
	if !lut.IsMonotone() {
		t.Error("coarsened GHE LUT must be monotone")
	}
	if lut.MSE(res.LUT) > 30 {
		t.Errorf("8-segment approximation MSE = %v levels², want small", lut.MSE(res.LUT))
	}
	_, hi := lut.Range()
	if int(hi) != 180 {
		t.Errorf("coarsened range top = %d, want 180", hi)
	}
}

func TestChordTableMatchesDirect(t *testing.T) {
	// The prefix-sum chord error must agree with direct evaluation.
	s := rng.New(5)
	pts := make([]transform.Point, 64)
	y := 0.0
	for i := range pts {
		y += s.Float64() * 7
		pts[i] = transform.Point{X: i * 4, Y: y}
	}
	tbl := newChordTable(pts)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			xi, yi := float64(pts[i].X), pts[i].Y
			xj, yj := float64(pts[j].X), pts[j].Y
			slope := (yj - yi) / (xj - xi)
			want := 0.0
			for k := i + 1; k < j; k++ {
				d := yi + slope*(float64(pts[k].X)-xi) - pts[k].Y
				want += d * d
			}
			got := tbl.at(i, j)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("e(%d,%d) = %v, direct %v", i, j, got, want)
			}
		}
	}
}

func TestChordTableCollinearZero(t *testing.T) {
	pts := linePts(100, 2.5, -7)
	tbl := newChordTable(pts)
	if e := tbl.at(0, 99); e != 0 {
		t.Errorf("collinear chord error = %v, want 0", e)
	}
	if e := tbl.at(3, 4); e != 0 {
		t.Errorf("adjacent chord error = %v, want 0", e)
	}
}

func BenchmarkCoarsenGHECurve(b *testing.B) {
	pts := gheCurve(b, fbmImage(128, 3), 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Coarsen(pts, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoarsenZoneCurve coarsens the curve of one dirty zone of a
// talking head: a 32×32 zone of a 4×4 LED grid over a 128² portrait,
// crossed by a 20×12 mouth patch of seeded random pixels. Its 1,024
// pixels leave most of the 256 levels empty, so Φ has long flat
// stretches, unlike the dense curve of BenchmarkCoarsenGHECurve. A
// zoned walk re-solves such a curve on every frame the patch changes.
func BenchmarkCoarsenZoneCurve(b *testing.B) {
	img, err := sipi.Portrait(128, 128, sipi.PortraitSpec{Mean: 0.5, Spread: 0.6, Grain: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(1)
	for y := 72; y < 84; y++ {
		for x := 52; x < 72; x++ {
			img.Set(x, y, uint8(80+s.Intn(100)))
		}
	}
	zone, err := img.SubImage(image.Rect(32, 64, 64, 96))
	if err != nil {
		b.Fatal(err)
	}
	pts := gheCurve(b, zone, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Coarsen(pts, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCoarsenPropertyOptimalAtLeastAsGoodAsUniformSplit(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		s := rng.New(seed)
		n := 32
		pts := make([]transform.Point, n)
		y := 0.0
		for i := range pts {
			y += s.Float64() * 5 // monotone random walk, like a CDF
			pts[i] = transform.Point{X: i, Y: y}
		}
		m := int(mRaw)%8 + 1
		r, err := Coarsen(pts, m)
		if err != nil {
			return false
		}
		// Uniformly spaced endpoints as a feasible competitor.
		idx := make([]int, m+1)
		for k := 0; k <= m; k++ {
			idx[k] = k * (n - 1) / m
		}
		// Deduplicate (possible when m > n-1 is not the case here but
		// rounding can collide for large m): skip if collision.
		for k := 1; k <= m; k++ {
			if idx[k] <= idx[k-1] {
				return true
			}
		}
		naive, err := CurveMSE(pts, idx)
		if err != nil {
			return false
		}
		return r.MSE <= naive+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
