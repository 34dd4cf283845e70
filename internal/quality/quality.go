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

// normalized checks the pair and resolves the defaults and the
// tiny-image fallback against its geometry.
func (o UQIOptions) normalized(a, b *gray.Image) (UQIOptions, error) {
	if err := checkPair(a, b); err != nil {
		return o, err
	}
	w, h := a.W, a.H
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
		o.Window = minInt(w, h)
		o.Step = o.Window
	}
	return o, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
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

// colPool recycles walk's column-sum buffer. A buffer serves every
// image no wider than itself, so one pool covers all geometries.
var colPool sync.Pool // *[]colSums

// newCols allocates a column-sum buffer on a pool miss, outside the
// //hebs:noalloc walk.
//
//go:noinline
func newCols(w int) *[]colSums {
	s := make([]colSums, w)
	return &s
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
// step (both already validated by normalized) and returns the means
// over windows of kind's per-window terms, summed in row-major window
// order. It keeps one running sum per column over the window's rows,
// moves the rows down by subtracting the leaving row and adding the
// entering one, and slides each window row across the columns the same
// way, so every window's sums are exact integers at O(1) cost. A
// window's statistics are sum/n; when n = win² is a power of two,
// sum·(1/n) is the same float64 (both are exact) without the five
// divisions.
//
//hebs:noalloc
func walk(a, b *gray.Image, win, step int, kind metricKind) (mean1, mean2 float64) {
	w, h := a.W, a.H
	p, _ := colPool.Get().(*[]colSums)
	if p == nil || len(*p) < w {
		p = newCols(w)
	}
	cols := (*p)[:w]
	clear(cols)
	for r := 0; r < win; r++ {
		ra, rb := a.Pix[r*w:(r+1)*w], b.Pix[r*w:(r+1)*w]
		for c := range cols {
			x, y := int64(ra[c]), int64(rb[c])
			s := &cols[c]
			s.x += x
			s.y += y
			s.xx += x * x
			s.yy += y * y
			s.xy += x * y
		}
	}
	n := float64(win * win)
	inv, pow2 := 1/n, win*win&(win*win-1) == 0
	var sum1, sum2 float64
	count := 0
	var zero colSums
	for y0 := 0; ; {
		var s colSums
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
			count++
			if x0 += step; x0+win > w {
				break
			}
			for c := x0 - step; c < x0; c++ {
				s.slide(&cols[c+win], &cols[c])
			}
		}
		if y0 += step; y0+win > h {
			break
		}
		for r := y0 - step; r < y0; r++ {
			oa, ob := a.Pix[r*w:(r+1)*w], b.Pix[r*w:(r+1)*w]
			ia, ib := a.Pix[(r+win)*w:(r+win+1)*w], b.Pix[(r+win)*w:(r+win+1)*w]
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
	}
	colPool.Put(p)
	return sum1 / float64(count), sum2 / float64(count)
}

// UQI returns the Universal Image Quality Index between two images,
// averaged over sliding windows. The result lies in [-1, 1], with 1 for
// identical images. Window moments are running sums (see walk), so the
// cost is O(pixels + windows) rather than O(windows × window area).
func UQI(a, b *gray.Image, opts UQIOptions) (float64, error) {
	opts, err := opts.normalized(a, b)
	if err != nil {
		return 0, err
	}
	q, _ := walk(a, b, opts.Window, opts.Step, uqiTerms)
	return q, nil
}

// SSIM returns the Structural Similarity index with the standard
// stabilizing constants C1=(0.01·L)², C2=(0.03·L)², L=255, averaged over
// the same uniform sliding windows as UQI. (The original SSIM paper uses
// an 11×11 Gaussian window; the uniform window preserves the index's
// behaviour for the backlight-scaling comparisons made here and is what
// UQI itself uses.)
func SSIM(a, b *gray.Image, opts UQIOptions) (float64, error) {
	opts, err := opts.normalized(a, b)
	if err != nil {
		return 0, err
	}
	s, _ := walk(a, b, opts.Window, opts.Step, ssimTerms)
	return s, nil
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

// UQIDistortion is shorthand for DistortionPercent(UQI(a, b)) with
// default options — the paper's distortion measure D(F, F′).
func UQIDistortion(a, b *gray.Image) (float64, error) {
	q, err := UQI(a, b, UQIOptions{})
	if err != nil {
		return 0, err
	}
	return DistortionPercent(q), nil
}
