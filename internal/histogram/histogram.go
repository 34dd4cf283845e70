// Package histogram implements the image-histogram machinery HEBS is
// built on: the 256-bin marginal distribution h(x) of pixel values, the
// cumulative distribution H(x), dynamic-range queries, percentile
// clipping, the uniform target histograms of the GHE problem (Section 4
// of the paper) and distances between histograms.
package histogram

import (
	"errors"
	"fmt"

	"hebs/internal/gray"
)

// Levels is the number of grayscale levels of an 8-bit display,
// the set G = [0..255] of the paper.
const Levels = 256

// Histogram is the marginal distribution h(x): Bins[v] counts the
// pixels with value v. N is the total pixel count.
type Histogram struct {
	Bins [Levels]int
	N    int
}

// Of computes the histogram of an image.
func Of(img *gray.Image) *Histogram {
	var h Histogram
	for _, p := range img.Pix {
		h.Bins[p]++
	}
	h.N = len(img.Pix)
	return &h
}

// Reset zeroes the histogram in place so a pooled instance can be
// reused without reallocating.
func (h *Histogram) Reset() {
	h.Bins = [Levels]int{}
	h.N = 0
}

// OfInto recomputes the histogram of img into h, overwriting any
// previous contents — the allocation-free counterpart of Of for
// pooled histograms.
func OfInto(img *gray.Image, h *Histogram) {
	h.Reset()
	for _, p := range img.Pix {
		h.Bins[p]++
	}
	h.N = len(img.Pix)
}

// FromBins builds a histogram from raw bin counts.
func FromBins(bins [Levels]int) (*Histogram, error) {
	var h Histogram
	n := 0
	for v, c := range bins {
		if c < 0 {
			return nil, fmt.Errorf("histogram: negative count %d at level %d", c, v)
		}
		n += c
	}
	if n == 0 {
		return nil, errors.New("histogram: empty histogram")
	}
	h.Bins = bins
	h.N = n
	return &h, nil
}

// CDF returns the cumulative distribution H: CDF()[v] is the number of
// pixels with value <= v. CDF()[255] == N.
func (h *Histogram) CDF() [Levels]int {
	var c [Levels]int
	run := 0
	for v := 0; v < Levels; v++ {
		run += h.Bins[v]
		c[v] = run
	}
	return c
}

// MinLevel returns the smallest populated grayscale level.
func (h *Histogram) MinLevel() int {
	for v := 0; v < Levels; v++ {
		if h.Bins[v] > 0 {
			return v
		}
	}
	return 0
}

// MaxLevel returns the largest populated grayscale level.
func (h *Histogram) MaxLevel() int {
	for v := Levels - 1; v >= 0; v-- {
		if h.Bins[v] > 0 {
			return v
		}
	}
	return 0
}

// DynamicRange returns MaxLevel - MinLevel, the pixel-value dynamic
// range the backlight-scaling techniques try to compress.
func (h *Histogram) DynamicRange() int { return h.MaxLevel() - h.MinLevel() }

// Percentile returns the smallest level v such that at least q·N pixels
// have value <= v (0 <= q <= 1).
func (h *Histogram) Percentile(q float64) (int, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("histogram: percentile %v out of [0,1]", q)
	}
	target := q * float64(h.N)
	cdf := h.CDF()
	for v := 0; v < Levels; v++ {
		if float64(cdf[v]) >= target {
			return v, nil
		}
	}
	return Levels - 1, nil
}

// Uniform returns the cumulative uniform target histogram U of the GHE
// problem: U(v) = 0 for v < gmin, N·(v-gmin)/(gmax-gmin) on
// [gmin, gmax], and N above gmax (footnote 3 of the paper).
func Uniform(n, gmin, gmax int) ([Levels]float64, error) {
	var u [Levels]float64
	if n <= 0 {
		return u, errors.New("histogram: Uniform with n <= 0")
	}
	if gmin < 0 || gmax >= Levels || gmin >= gmax {
		return u, fmt.Errorf("histogram: Uniform bad limits [%d,%d]", gmin, gmax)
	}
	for v := 0; v < Levels; v++ {
		switch {
		case v < gmin:
			u[v] = 0
		case v > gmax:
			u[v] = float64(n)
		default:
			u[v] = float64(n) * float64(v-gmin) / float64(gmax-gmin)
		}
	}
	return u, nil
}

// L1CDFDistance is the integral |U(Φ(x)) - H(x)| dx objective of Eq. 4,
// discretized: the mean absolute difference between two cumulative
// histograms, normalized by N so the result is in [0, 255].
func L1CDFDistance(a, b [Levels]float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	sum := 0.0
	for v := 0; v < Levels; v++ {
		d := a[v] - b[v]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(n)
}
