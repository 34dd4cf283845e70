// Package gray provides the 8-bit grayscale image type every HEBS
// component operates on, together with conversions to and from the
// standard library image types and per-image statistics.
//
// The paper treats an image as a field of pixel values X in [0..255]
// whose normalized form x = X/255 drives the LCD transmittance; all of
// the algorithms (histogram equalization, piecewise-linear coarsening,
// distortion measurement, power modeling) are defined on this grayscale
// field. Color images are reduced to luma using the Rec. 601 weights,
// the same reduction used by image/color.GrayModel.
package gray

import (
	"errors"
	"fmt"
	"image"
	"image/color"
)

// Image is an 8-bit grayscale image. Pixels are stored row-major in Pix
// with no padding: the pixel at (x, y) lives at Pix[y*W+x].
type Image struct {
	W, H int
	Pix  []uint8
}

// New allocates a zeroed (all-black) w×h image. It panics if either
// dimension is not positive.
func New(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("gray: New with non-positive dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y). Out-of-bounds access panics, matching
// slice semantics.
func (m *Image) At(x, y int) uint8 {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		panic(fmt.Sprintf("gray: At(%d,%d) out of bounds %dx%d", x, y, m.W, m.H))
	}
	return m.Pix[y*m.W+x]
}

// Set writes the pixel at (x, y). Out-of-bounds access panics.
func (m *Image) Set(x, y int, v uint8) {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		panic(fmt.Sprintf("gray: Set(%d,%d) out of bounds %dx%d", x, y, m.W, m.H))
	}
	m.Pix[y*m.W+x] = v
}

// Clone returns a deep copy of the image.
func (m *Image) Clone() *Image {
	out := New(m.W, m.H)
	copy(out.Pix, m.Pix)
	return out
}

// Equal reports whether two images have identical dimensions and pixels.
func (m *Image) Equal(o *Image) bool {
	if o == nil || m.W != o.W || m.H != o.H {
		return false
	}
	for i, p := range m.Pix {
		if p != o.Pix[i] {
			return false
		}
	}
	return true
}

// Bounds returns the image bounds as an image.Rectangle anchored at the
// origin, for interoperability with the standard library.
func (m *Image) Bounds() image.Rectangle { return image.Rect(0, 0, m.W, m.H) }

// SubImage returns a copy of the rectangle r of the image. Unlike the
// standard library convention it copies pixels rather than aliasing,
// because callers mutate sub-images independently (e.g. UQI windows).
func (m *Image) SubImage(r image.Rectangle) (*Image, error) {
	r = r.Intersect(m.Bounds())
	if r.Empty() {
		return nil, errors.New("gray: empty sub-image")
	}
	out := New(r.Dx(), r.Dy())
	for y := 0; y < r.Dy(); y++ {
		srcOff := (r.Min.Y+y)*m.W + r.Min.X
		copy(out.Pix[y*out.W:(y+1)*out.W], m.Pix[srcOff:srcOff+r.Dx()])
	}
	return out, nil
}

// Fill sets every pixel to v.
func (m *Image) Fill(v uint8) {
	for i := range m.Pix {
		m.Pix[i] = v
	}
}

// Stats summarizes the pixel distribution of an image.
type Stats struct {
	Min, Max   uint8
	Mean       float64
	Variance   float64
	NumPixels  int
	NumLevels  int // count of distinct grayscale values present
	DynamicRng int // Max - Min
}

// Statistics computes pixel statistics in a single pass.
func (m *Image) Statistics() Stats {
	var st Stats
	st.Min = 255
	st.NumPixels = len(m.Pix)
	var present [256]bool
	sum := 0.0
	for _, p := range m.Pix {
		if p < st.Min {
			st.Min = p
		}
		if p > st.Max {
			st.Max = p
		}
		present[p] = true
		sum += float64(p)
	}
	st.Mean = sum / float64(st.NumPixels)
	ss := 0.0
	for _, p := range m.Pix {
		d := float64(p) - st.Mean
		ss += d * d
	}
	st.Variance = ss / float64(st.NumPixels)
	for _, ok := range present {
		if ok {
			st.NumLevels++
		}
	}
	st.DynamicRng = int(st.Max) - int(st.Min)
	return st
}

// FromStdImage converts any image.Image to a grayscale Image using the
// standard library's gray conversion (Rec. 601 luma).
func FromStdImage(src image.Image) *Image {
	b := src.Bounds()
	out := New(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			c := color.GrayModel.Convert(src.At(b.Min.X+x, b.Min.Y+y)).(color.Gray)
			out.Pix[y*out.W+x] = c.Y
		}
	}
	return out
}

// ToStdImage converts the image to a *image.Gray sharing no storage.
func (m *Image) ToStdImage() *image.Gray {
	out := image.NewGray(m.Bounds())
	for y := 0; y < m.H; y++ {
		copy(out.Pix[y*out.Stride:y*out.Stride+m.W], m.Pix[y*m.W:(y+1)*m.W])
	}
	return out
}

// String implements fmt.Stringer with a compact summary.
func (m *Image) String() string {
	return fmt.Sprintf("gray.Image(%dx%d)", m.W, m.H)
}
