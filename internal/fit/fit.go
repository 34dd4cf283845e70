// Package fit provides the regression and interpolation tools that
// replace the MATLAB curve-fitting step of the paper: least-squares
// polynomial fitting (for the distortion characteristic curve of
// Figure 7), a worst-case upper-envelope fit, piecewise-linear
// interpolation, and inverse lookup on monotone curves.
package fit

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("fit: singular system")

// SolveLinear solves the square system A·x = b by Gaussian elimination
// with partial pivoting. A is given row-major and is not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, errors.New("fit: bad system dimensions")
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, errors.New("fit: non-square matrix")
		}
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := m[r][n]
		for c := r + 1; c < n; c++ {
			sum -= m[r][c] * x[c]
		}
		x[r] = sum / m[r][r]
	}
	return x, nil
}

// Poly is a polynomial c[0] + c[1]·x + c[2]·x² + …
type Poly []float64

// Eval evaluates the polynomial at x by Horner's rule.
func (p Poly) Eval(x float64) float64 {
	v := 0.0
	for i := len(p) - 1; i >= 0; i-- {
		v = v*x + p[i]
	}
	return v
}

// PolyFit fits a least-squares polynomial of the given degree to the
// points (xs[i], ys[i]) via the normal equations. It requires at least
// degree+1 points.
func PolyFit(xs, ys []float64, degree int) (Poly, error) {
	if degree < 0 {
		return nil, errors.New("fit: negative degree")
	}
	if len(xs) != len(ys) {
		return nil, errors.New("fit: x/y length mismatch")
	}
	n := degree + 1
	if len(xs) < n {
		return nil, fmt.Errorf("fit: need at least %d points for degree %d, have %d", n, degree, len(xs))
	}
	// Normal equations: (VᵀV) c = Vᵀ y with Vandermonde V.
	ata := make([][]float64, n)
	atb := make([]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n)
	}
	for k := range xs {
		// powers[j] = xs[k]^j
		pw := 1.0
		powers := make([]float64, 2*n-1)
		for j := range powers {
			powers[j] = pw
			pw *= xs[k]
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ata[i][j] += powers[i+j]
			}
			atb[i] += powers[i] * ys[k]
		}
	}
	c, err := SolveLinear(ata, atb)
	if err != nil {
		return nil, err
	}
	return Poly(c), nil
}

// EnvelopeFit fits a polynomial of the given degree and then shifts its
// constant term up until the curve lies on or above every data point —
// the "worst-case fit" of Figure 7.
func EnvelopeFit(xs, ys []float64, degree int) (Poly, error) {
	p, err := PolyFit(xs, ys, degree)
	if err != nil {
		return nil, err
	}
	maxBelow := 0.0
	for i := range xs {
		if d := ys[i] - p.Eval(xs[i]); d > maxBelow {
			maxBelow = d
		}
	}
	out := append(Poly(nil), p...)
	out[0] += maxBelow
	return out, nil
}

// Point is a 2-D sample.
type Point struct{ X, Y float64 }

// Linear is a piecewise-linear curve through a sorted sequence of
// points, with constant extrapolation beyond the ends.
type Linear struct {
	pts []Point
}

// NewLinear builds a piecewise-linear interpolant. Points are sorted by
// X; duplicate X values are collapsed keeping the last Y. At least one
// point is required.
func NewLinear(pts []Point) (*Linear, error) {
	if len(pts) == 0 {
		return nil, errors.New("fit: NewLinear with no points")
	}
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].X < sorted[j].X })
	dedup := sorted[:1]
	for _, p := range sorted[1:] {
		//hebslint:allow floateq deduplicating exactly repeated X values
		if p.X == dedup[len(dedup)-1].X {
			dedup[len(dedup)-1] = p
			continue
		}
		dedup = append(dedup, p)
	}
	return &Linear{pts: dedup}, nil
}

// Points returns a copy of the interpolation nodes.
func (l *Linear) Points() []Point { return append([]Point(nil), l.pts...) }

// Eval evaluates the curve at x, clamping outside the node range.
func (l *Linear) Eval(x float64) float64 {
	pts := l.pts
	if x <= pts[0].X {
		return pts[0].Y
	}
	if x >= pts[len(pts)-1].X {
		return pts[len(pts)-1].Y
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].X > x }) - 1
	a, b := pts[i], pts[i+1]
	t := (x - a.X) / (b.X - a.X)
	return a.Y + (b.Y-a.Y)*t
}

// InvertMonotone finds x in [xlo, xhi] such that f(x) = target, for a
// monotone (non-increasing or non-decreasing) f, by bisection. It
// returns the clamped endpoint if the target lies outside f's range on
// the interval.
func InvertMonotone(f func(float64) float64, target, xlo, xhi float64) (float64, error) {
	if xlo > xhi {
		return 0, errors.New("fit: InvertMonotone with xlo > xhi")
	}
	flo, fhi := f(xlo), f(xhi)
	increasing := fhi >= flo
	// Clamp if out of range.
	if increasing {
		if target <= flo {
			return xlo, nil
		}
		if target >= fhi {
			return xhi, nil
		}
	} else {
		if target >= flo {
			return xlo, nil
		}
		if target <= fhi {
			return xhi, nil
		}
	}
	lo, hi := xlo, xhi
	for i := 0; i < 200 && hi-lo > 1e-10*(1+math.Abs(hi)); i++ {
		mid := (lo + hi) / 2
		v := f(mid)
		if (increasing && v < target) || (!increasing && v > target) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// RSquared returns the coefficient of determination of the polynomial
// against the data: 1 − SS_res/SS_tot. 1 means a perfect fit; 0 means
// no better than the mean; negative means worse than the mean. A
// constant data set returns 1 if fitted exactly and 0 otherwise.
func (p Poly) RSquared(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("fit: x/y length mismatch")
	}
	if len(xs) == 0 {
		return 0, errors.New("fit: no data")
	}
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	ssRes, ssTot := 0.0, 0.0
	for i := range xs {
		r := ys[i] - p.Eval(xs[i])
		d := ys[i] - mean
		ssRes += r * r
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 1 - ssRes/ssTot, nil
}
