// Package transform implements pixel transformation functions Φ(x, β)
// as 256-entry lookup tables: the identity / grayscale-shift /
// grayscale-spreading / single-band families of prior work (Figure 2,
// Eq. 2a, 2b, 3 of the paper) and the general monotone piecewise-linear
// k-band functions HEBS programs into the LCD reference driver
// (Figure 3).
//
// A LUT maps an 8-bit input pixel value to the 8-bit value driven onto
// the panel. Transformations built from normalized-domain formulas
// quantize via round-to-nearest.
package transform

import (
	"errors"
	"fmt"
	"math"

	"hebs/internal/gray"
)

// Levels is the grayscale level count of the 8-bit pipeline.
const Levels = 256

// LUT is a complete pixel transformation function on [0..255].
type LUT [Levels]uint8

// Apply transforms every pixel of src through the LUT, returning a new
// image.
func (l *LUT) Apply(src *gray.Image) *gray.Image {
	out := gray.New(src.W, src.H)
	for i, p := range src.Pix {
		out.Pix[i] = l[p]
	}
	return out
}

// ApplyInto transforms every pixel of src through the LUT into dst,
// which must have the same geometry as src. The engine hot path uses
// it to remap frames into pooled buffers without allocating.
func (l *LUT) ApplyInto(src, dst *gray.Image) error {
	if src == nil || dst == nil {
		return errors.New("transform: ApplyInto with nil image")
	}
	if src.W != dst.W || src.H != dst.H {
		return fmt.Errorf("transform: ApplyInto geometry mismatch %dx%d vs %dx%d",
			src.W, src.H, dst.W, dst.H)
	}
	for i, p := range src.Pix {
		dst.Pix[i] = l[p]
	}
	return nil
}

// IsMonotone reports whether the LUT is non-decreasing — the paper
// requires Φ to be monotonic so that grayscale ordering (and hence
// image structure) is preserved.
func (l *LUT) IsMonotone() bool {
	for i := 1; i < Levels; i++ {
		if l[i] < l[i-1] {
			return false
		}
	}
	return true
}

// Range returns the smallest and largest output values of the LUT.
func (l *LUT) Range() (lo, hi uint8) {
	lo, hi = l[0], l[0]
	for _, v := range l[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// DynamicRange returns hi − lo of the LUT's output values: the dynamic
// range R of the transformed image (when the input covers [0..255]).
func (l *LUT) DynamicRange() int {
	lo, hi := l.Range()
	return int(hi) - int(lo)
}

// Compose returns the LUT computing other(l(x)).
func (l *LUT) Compose(other *LUT) *LUT {
	var out LUT
	for i := 0; i < Levels; i++ {
		out[i] = other[l[i]]
	}
	return &out
}

// FromFunc builds a LUT from a normalized-domain function f: [0,1] →
// [0,1]; outputs are clamped and rounded to 8 bits.
func FromFunc(f func(x float64) float64) *LUT {
	var out LUT
	for i := 0; i < Levels; i++ {
		x := float64(i) / (Levels - 1)
		y := f(x)
		if math.IsNaN(y) {
			y = 0
		}
		v := math.Round(y * (Levels - 1))
		if v < 0 {
			v = 0
		}
		if v > Levels-1 {
			v = Levels - 1
		}
		out[i] = uint8(v)
	}
	return &out
}

// checkBeta validates a backlight scaling factor 0 < β <= 1.
func checkBeta(beta float64) error {
	if !(beta > 0 && beta <= 1) {
		return fmt.Errorf("transform: backlight factor %v outside (0,1]", beta)
	}
	return nil
}

// BrightnessShift returns the "backlight luminance dimming with
// brightness compensation" function of DLS [4], Eq. 2a:
// Φ(x, β) = min(1, x + 1 − β) (Figure 2b).
func BrightnessShift(beta float64) (*LUT, error) {
	if err := checkBeta(beta); err != nil {
		return nil, err
	}
	return FromFunc(func(x float64) float64 {
		return math.Min(1, x+1-beta)
	}), nil
}

// ContrastScale returns the "backlight luminance dimming with contrast
// enhancement" function of DLS [4], Eq. 2b: Φ(x, β) = min(1, x/β)
// (Figure 2c).
func ContrastScale(beta float64) (*LUT, error) {
	if err := checkBeta(beta); err != nil {
		return nil, err
	}
	return FromFunc(func(x float64) float64 {
		return math.Min(1, x/beta)
	}), nil
}

// SingleBand returns the single-band grayscale-spreading function of
// CBCS [5], Eq. 3 (Figure 2d): pixel values in the normalized band
// [gl, gu] are spread affinely onto [0, 1]; values outside clamp to the
// endpoints.
func SingleBand(gl, gu float64) (*LUT, error) {
	if gl < 0 || gu > 1 || gl >= gu {
		return nil, fmt.Errorf("transform: invalid band [%v,%v]", gl, gu)
	}
	c := 1 / (gu - gl)
	d := -gl * c
	return FromFunc(func(x float64) float64 {
		switch {
		case x <= gl:
			return 0
		case x >= gu:
			return 1
		default:
			return c*x + d
		}
	}), nil
}

// Point is a breakpoint of a piecewise-linear transformation in 8-bit
// level coordinates: input level X maps to output level Y. Y is float64
// because intermediate breakpoints (e.g. exact GHE outputs before
// quantization) are fractional.
type Point struct {
	X int
	Y float64
}

// Piecewise builds a LUT from ordered breakpoints by linear
// interpolation between them. Requirements, mirroring Eq. 8 of the
// paper: at least two points, X strictly increasing, the first at X=0
// and the last at X=255, and Y non-decreasing (monotone Φ).
func Piecewise(pts []Point) (*LUT, error) {
	if len(pts) < 2 {
		return nil, errors.New("transform: need at least two breakpoints")
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != Levels-1 {
		return nil, fmt.Errorf("transform: breakpoints must span [0,255], got [%d,%d]",
			pts[0].X, pts[len(pts)-1].X)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			return nil, fmt.Errorf("transform: breakpoint X not increasing at %d", i)
		}
		if pts[i].Y < pts[i-1].Y {
			return nil, fmt.Errorf("transform: breakpoint Y decreasing at %d (monotonicity)", i)
		}
	}
	var out LUT
	seg := 0
	for x := 0; x < Levels; x++ {
		for seg+1 < len(pts)-1 && pts[seg+1].X <= x {
			seg++
		}
		a, b := pts[seg], pts[seg+1]
		t := float64(x-a.X) / float64(b.X-a.X)
		y := a.Y + (b.Y-a.Y)*t
		v := math.Round(y)
		if v < 0 {
			v = 0
		}
		if v > Levels-1 {
			v = Levels - 1
		}
		out[x] = uint8(v)
	}
	return &out, nil
}

// Breakpoints recovers a minimal exact breakpoint list for the LUT:
// every index where the discrete slope changes. The result always
// includes X=0 and X=255 and reproduces the LUT exactly under Piecewise
// up to rounding. This is the ordered set P = {p1..pn} fed to the PLC
// solver.
func (l *LUT) Breakpoints() []Point {
	pts := []Point{{X: 0, Y: float64(l[0])}}
	for x := 1; x < Levels-1; x++ {
		dPrev := int(l[x]) - int(l[x-1])
		dNext := int(l[x+1]) - int(l[x])
		if dPrev != dNext {
			pts = append(pts, Point{X: x, Y: float64(l[x])})
		}
	}
	pts = append(pts, Point{X: Levels - 1, Y: float64(l[Levels-1])})
	return pts
}

// MSE returns the mean squared difference between two LUTs over all 256
// inputs, in squared level units — the approximation-error metric of
// the PLC problem.
func (l *LUT) MSE(other *LUT) float64 {
	s := 0.0
	for i := 0; i < Levels; i++ {
		d := float64(l[i]) - float64(other[i])
		s += d * d
	}
	return s / Levels
}

// PseudoInverse returns the monotone pseudo-inverse of the LUT: a LUT
// indexed by *output* level y whose entry is the representative input
// level (the rounded mean of all inputs mapping to y). Output levels
// the LUT never produces are filled by linear interpolation between
// the nearest produced neighbours (clamped at the ends).
//
// For a monotone Φ, Φ⁻¹(Φ(F)) reconstructs F up to the information
// destroyed by level merging; comparing F against this reconstruction
// is the paper's dynamic-range distortion: the human visual system
// adapts to the invertible global tone change (that is the whole point
// of contrast compensation), so only the irreversible merging of
// grayscale levels is perceived as distortion.
func (l *LUT) PseudoInverse() (*LUT, error) {
	if !l.IsMonotone() {
		return nil, errors.New("transform: pseudo-inverse requires a monotone LUT")
	}
	var sum [Levels]int
	var cnt [Levels]int
	for x := 0; x < Levels; x++ {
		y := l[x]
		sum[y] += x
		cnt[y]++
	}
	var inv LUT
	// First produced output level and its representative.
	first, last := -1, -1
	for y := 0; y < Levels; y++ {
		if cnt[y] > 0 {
			if first < 0 {
				first = y
			}
			last = y
			inv[y] = uint8((sum[y] + cnt[y]/2) / cnt[y])
		}
	}
	// first/last are always set: cnt sums to 256.
	for y := 0; y < first; y++ {
		inv[y] = inv[first]
	}
	for y := last + 1; y < Levels; y++ {
		inv[y] = inv[last]
	}
	// Interpolate interior gaps.
	prev := first
	for y := first + 1; y <= last; y++ {
		if cnt[y] == 0 {
			continue
		}
		if y-prev > 1 {
			y0, y1 := float64(inv[prev]), float64(inv[y])
			for g := prev + 1; g < y; g++ {
				t := float64(g-prev) / float64(y-prev)
				inv[g] = uint8(math.Round(y0 + (y1-y0)*t))
			}
		}
		prev = y
	}
	return &inv, nil
}

// Reconstruction returns the LUT Φ⁻¹∘Φ: each input level mapped to the
// representative of its merge class. Applying it to an image yields the
// paper's distortion comparand for dynamic-range reduction.
func (l *LUT) Reconstruction() (*LUT, error) {
	inv, err := l.PseudoInverse()
	if err != nil {
		return nil, err
	}
	return l.Compose(inv), nil
}

// ScaleToRange returns a LUT that linearly compresses [0,255] onto
// [lo, hi] — the trivial range-reduction transform used as a reference
// point in ablations.
func ScaleToRange(lo, hi uint8) (*LUT, error) {
	if lo > hi {
		return nil, fmt.Errorf("transform: inverted range [%d,%d]", lo, hi)
	}
	span := float64(hi) - float64(lo)
	return FromFunc(func(x float64) float64 {
		return (float64(lo) + x*span) / (Levels - 1)
	}), nil
}
