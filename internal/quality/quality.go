// Package quality implements the image-distortion measures used in the
// paper:
//
//   - the Universal Image Quality Index (UQI) of Wang & Bovik (ref. [8]
//     of the paper), the measure HEBS adopts because it combines pixel
//     differences with luminance/contrast/structure terms modeling the
//     human visual system;
//   - SSIM (ref. [6]), evaluated as the paper's stated future work.
//
// Distortion values are reported on the paper's percentage scale:
// D = (1 − Q) × 100 for the indices Q in [−1, 1].
package quality

import (
	"errors"
	"fmt"
	"sync"

	"hebs/internal/gray"
)

// DefaultWindow is the sliding-window size for UQI/SSIM. Wang & Bovik's
// reference implementation uses 8×8 for UQI.
const DefaultWindow = 8

// ErrShapeMismatch is returned when two images have different sizes.
var ErrShapeMismatch = errors.New("quality: image shapes differ")

// checkPair validates the image pair a, b; checkPair(a, a) validates
// a alone.
func checkPair(a, b *gray.Image) error {
	if a == nil || b == nil {
		return errors.New("quality: nil image")
	}
	if a.W < 1 || a.H < 1 {
		return fmt.Errorf("quality: empty %dx%d image", a.W, a.H)
	}
	if a.W != b.W || a.H != b.H {
		return fmt.Errorf("%w: %dx%d vs %dx%d", ErrShapeMismatch, a.W, a.H, b.W, b.H)
	}
	return nil
}

// uqiWindow computes the Q index of one window from its means,
// variances and covariance, following the degenerate-case handling of
// Wang & Bovik's reference implementation.
func uqiWindow(mx, my, vx, vy, cov float64) float64 {
	d1 := vx + vy
	d2 := mx*mx + my*my
	switch {
	case d1 < 1e-12 && d2 < 1e-12:
		// Both windows uniformly black: identical.
		return 1
	case d1 < 1e-12:
		// Both windows flat: only the luminance term is defined.
		return 2 * mx * my / d2
	case d2 < 1e-12:
		// Zero mean energy but nonzero variance cannot occur for
		// non-negative pixels; defensively return the contrast/structure
		// product.
		return 2 * cov / d1
	default:
		return 4 * cov * mx * my / (d1 * d2)
	}
}

// UQIOptions configures the UQI/SSIM computation.
type UQIOptions struct {
	// Window is the square window size (default DefaultWindow).
	Window int
	// Step is the window stride. 1 gives the fully sliding window of the
	// reference implementation; Window gives non-overlapping blocks.
	// Default 1.
	Step int
}

// normalized resolves the defaults and the tiny-image fallback against
// a w×h image.
func (o UQIOptions) normalized(w, h int) (UQIOptions, error) {
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.Step == 0 {
		o.Step = 1
	}
	if o.Window < 1 || o.Step < 1 {
		return o, fmt.Errorf("quality: bad options %+v", o)
	}
	if o.Window > w || o.Window > h {
		// Fall back to a single whole-image window for tiny images.
		o.Window = min(w, h)
		o.Step = o.Window
	}
	return o, nil
}

// colSums holds the exact integer moment sums Σx, Σy, Σx², Σy², Σxy
// of one column (or one window) of an aligned image pair. Pixel values
// are at most 255, so Σxy over any supported window fits in int64 and
// converts to float64 exactly.
type colSums struct{ x, y, xx, yy, xy int64 }

// slide adds in's sums to s and subtracts out's.
func (s *colSums) slide(in, out *colSums) {
	s.x += in.x - out.x
	s.y += in.y - out.y
	s.xx += in.xx - out.xx
	s.yy += in.yy - out.yy
	s.xy += in.xy - out.xy
}

// colPool and ringPool recycle walk's column sums and reconstructed
// rows. A buffer serves every geometry it is large enough for.
var colPool, ringPool sync.Pool // *[]colSums, *[]uint8

// pooled returns a buffer of n elements from p, allocating on a miss
// outside the //hebs:noalloc walk.
//
//go:noinline
func pooled[T any](p *sync.Pool, n int) *[]T {
	s, _ := p.Get().(*[]T)
	if s == nil || cap(*s) < n {
		buf := make([]T, n)
		s = &buf
	}
	*s = (*s)[:n]
	return s
}

// moveRow subtracts the leaving row pair (oa, ob) from cols and adds
// the entering pair (ia, ib), in a function of its own for registers.
//
//hebs:noalloc
//go:noinline
func moveRow(cols []colSums, oa, ob, ia, ib []uint8) {
	oa, ob, ia, ib = oa[:len(cols)], ob[:len(cols)], ia[:len(cols)], ib[:len(cols)]
	for c := range cols {
		xo, yo, xi, yi := int64(oa[c]), int64(ob[c]), int64(ia[c]), int64(ib[c])
		s := &cols[c]
		s.x += xi - xo
		s.y += yi - yo
		s.xx += xi*xi - xo*xo
		s.yy += yi*yi - yo*yo
		s.xy += xi*yi - xo*yo
	}
}

// windowRow adds kind's terms of the windows along cols, one every step
// columns, to sum1 and sum2 in window order; like moveRow, it is its own
// function. For n = win² a power of two, sum·(1/n) equals sum/n exactly.
//
//hebs:noalloc
//go:noinline
func windowRow(cols []colSums, win, step int, kind metricKind, sum1, sum2 float64) (float64, float64) {
	n := float64(win * win)
	inv, pow2 := 1/n, win*win&(win*win-1) == 0
	var s, zero colSums
	for c := 0; c < win; c++ {
		s.slide(&cols[c], &zero)
	}
	for x0 := 0; ; {
		// The explicit conversions round each scaled sum on its own,
		// as a division would, so no product is fused into the
		// subtractions below.
		var mx, my, exx, eyy, exy float64
		if pow2 {
			mx, my = float64(float64(s.x)*inv), float64(float64(s.y)*inv)
			exx, eyy, exy = float64(float64(s.xx)*inv), float64(float64(s.yy)*inv), float64(float64(s.xy)*inv)
		} else {
			mx, my = float64(s.x)/n, float64(s.y)/n
			exx, eyy, exy = float64(s.xx)/n, float64(s.yy)/n, float64(s.xy)/n
		}
		vx, vy, cov := exx-mx*mx, eyy-my*my, exy-mx*my
		// Guard tiny negatives from float cancellation.
		if vx < 0 {
			vx = 0
		}
		if vy < 0 {
			vy = 0
		}
		switch kind {
		case uqiTerms:
			sum1 += uqiWindow(mx, my, vx, vy, cov)
		case ssimTerms:
			num := (2*mx*my + c1) * (2*cov + c2)
			den := (mx*mx + my*my + c1) * (vx + vy + c2)
			sum1 += num / den
		default:
			sum1 += (2*mx*my + c1) / (mx*mx + my*my + c1)
			sum2 += (2*cov + c2) / (vx + vy + c2)
		}
		if x0 += step; x0+win > len(cols) {
			break
		}
		for c := x0 - step; c < x0; c++ {
			s.slide(&cols[c+win], &cols[c])
		}
	}
	return sum1, sum2
}

// metricKind selects the per-window terms walk averages.
type metricKind int

const (
	uqiTerms  metricKind = iota // Q
	ssimTerms                   // SSIM
	ssimParts                   // luminance, contrast·structure
)

// SSIM's stabilizing constants C1=(0.01·L)², C2=(0.03·L)², L=255.
const (
	c1 = (0.01 * 255) * (0.01 * 255)
	c2 = (0.03 * 255) * (0.03 * 255)
)

// walk slides a win×win window over the aligned pair a, b at the given
// step (validated and resolved by normalized) and returns the means
// over windows of kind's per-window terms, summed in row-major window
// order. It keeps one running sum per column over the window's rows,
// moves the rows down by subtracting the leaving row and adding the
// entering one, and slides each window row across the columns the same
// way, so every window's sums are exact integers at O(1) cost
// (windowRow, moveRow).
//
// With b nil, y is g[x] for the reconstruction g (checked against a):
// g of a's row enters a ring of win+1 rows with the row and is read
// back as it leaves. One more ring row stays zero, for the first rows
// to enter against.
//
//hebs:noalloc
func walk(a, b *gray.Image, g Recon, win, step int, kind metricKind) (mean1, mean2 float64) {
	w, h := a.W, a.H
	cp, rp := pooled[colSums](&colPool, w), pooled[uint8](&ringPool, (win+2)*w)
	ys, period, zero := *rp, win+1, (*rp)[(win+1)*w:] // y row r is ys[r%period*w:][:w]
	if b != nil {
		ys, period = b.Pix, h
	}
	cols := *cp
	clear(cols)
	clear(zero)
	for r := 0; r < win; r++ {
		ra, rb := a.Pix[r*w:(r+1)*w], ys[r%period*w:][:w]
		if b == nil {
			g.fill(rb, ra, r)
		}
		moveRow(cols, zero, zero, ra, rb)
	}
	var sum1, sum2 float64
	for y0 := 0; ; {
		sum1, sum2 = windowRow(cols, win, step, kind, sum1, sum2)
		if y0 += step; y0+win > h {
			break
		}
		for r := y0 - step; r < y0; r++ {
			oa, ob := a.Pix[r*w:(r+1)*w], ys[r%period*w:][:w]
			ia, ib := a.Pix[(r+win)*w:(r+win+1)*w], ys[(r+win)%period*w:][:w]
			if b == nil {
				g.fill(ib, ia, r+win)
			}
			moveRow(cols, oa, ob, ia, ib)
		}
	}
	colPool.Put(cp)
	ringPool.Put(rp)
	count := float64(((h-win)/step + 1) * ((w-win)/step + 1))
	return sum1 / count, sum2 / count
}

// UQI returns the Universal Image Quality Index between two images,
// averaged over sliding windows. The result lies in [-1, 1], with 1 for
// identical images. Window moments are running sums (see walk), so the
// cost is O(pixels + windows) rather than O(windows × window area).
func UQI(a, b *gray.Image, opts UQIOptions) (float64, error) {
	q, _, err := measure(a, b, Recon{}, opts, uqiTerms)
	return q, err
}

// measure validates the pair a, b — or, with b nil, a and its
// reconstruction g — resolves opts against the geometry, and walks.
func measure(a, b *gray.Image, g Recon, opts UQIOptions, kind metricKind) (mean1, mean2 float64, err error) {
	if b != nil {
		err = checkPair(a, b)
	} else if err = checkPair(a, a); err == nil && !g.tiles(a.W, a.H) {
		err = errBadRecon
	}
	if err != nil {
		return 0, 0, err
	}
	if opts, err = opts.normalized(a.W, a.H); err != nil {
		return 0, 0, err
	}
	mean1, mean2 = walk(a, b, g, opts.Window, opts.Step, kind)
	return mean1, mean2, nil
}

// DistortionPercent converts a quality index Q in [-1,1] to the paper's
// percentage distortion scale D = (1-Q)·100, clamped to [0, 200].
func DistortionPercent(q float64) float64 {
	d := (1 - q) * 100
	if d < 0 {
		return 0
	}
	if d > 200 {
		return 200
	}
	return d
}

// UQIMetric is the paper's distortion measure D = (1 − UQI(F, g(F))) ×
// 100 with default options, for an image F and its reconstruction g.
// It is Float64bits-equal to DistortionPercent of UQI(F, g(F)) on a
// materialized g(F), but never writes g(F).
func UQIMetric(a *gray.Image, g Recon) (float64, error) { return reconMetric(a, g, uqiTerms) }

// SSIMMetric is (1 − SSIM(F, g(F))) × 100, read through g's tables like
// UQIMetric. SSIM uses the standard stabilizing constants
// C1=(0.01·L)², C2=(0.03·L)², L=255, averaged over the same uniform
// sliding windows as UQI. (The original SSIM paper uses an 11×11
// Gaussian window; the uniform window preserves the index's behaviour
// for the backlight-scaling comparisons made here and is what UQI
// itself uses.)
func SSIMMetric(a *gray.Image, g Recon) (float64, error) { return reconMetric(a, g, ssimTerms) }

// reconMetric is DistortionPercent of kind's index on (a, g(a)) with
// default options.
func reconMetric(a *gray.Image, g Recon, kind metricKind) (float64, error) {
	q, _, err := measure(a, nil, g, UQIOptions{}, kind)
	if err != nil {
		return 0, err
	}
	return DistortionPercent(q), nil
}

// materializedMetric is DistortionPercent of index(a, g(a)), for the
// indices that filter or resample the reconstruction and so read g(a)
// as an image.
func materializedMetric(a *gray.Image, g Recon, index func(a, b *gray.Image) (float64, error)) (float64, error) {
	b, err := g.apply(a)
	if err != nil {
		return 0, err
	}
	v, err := index(a, b)
	if err != nil {
		return 0, err
	}
	return DistortionPercent(v), nil
}
