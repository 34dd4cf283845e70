// Package rgb carries HEBS to color content. Color LCDs synthesize a
// pixel from three filtered sub-pixels driven by the same source
// drivers (Section 2), so a single grayscale-voltage transfer function
// Λ applies to all three channels. The backlight decision — admissible
// dynamic range, β — is made on the luma plane, and Λ is then applied
// to R, G and B identically, which preserves hue ratios up to the
// saturation behaviour of the transform.
package rgb

import (
	"errors"
	"fmt"
	"image"
	"image/color"

	"hebs/internal/gray"
	"hebs/internal/transform"
)

// Image is an 8-bit RGB image, row-major, 3 bytes per pixel (R, G, B).
type Image struct {
	W, H int
	Pix  []uint8
}

// New allocates a black w×h color image.
func New(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("rgb: New with non-positive dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, 3*w*h)}
}

// At returns the pixel at (x, y).
func (m *Image) At(x, y int) (r, g, b uint8) {
	i := m.offset(x, y)
	return m.Pix[i], m.Pix[i+1], m.Pix[i+2]
}

// Set writes the pixel at (x, y).
func (m *Image) Set(x, y int, r, g, b uint8) {
	i := m.offset(x, y)
	m.Pix[i], m.Pix[i+1], m.Pix[i+2] = r, g, b
}

func (m *Image) offset(x, y int) int {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		panic(fmt.Sprintf("rgb: access (%d,%d) out of bounds %dx%d", x, y, m.W, m.H))
	}
	return 3 * (y*m.W + x)
}

// Clone returns a deep copy.
func (m *Image) Clone() *Image {
	out := New(m.W, m.H)
	copy(out.Pix, m.Pix)
	return out
}

// Equal reports pixel-exact equality.
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

// ApplyLUT drives all three channels through the same transfer
// function — exactly what the shared source-driver ladder does in
// hardware.
func (m *Image) ApplyLUT(lut *transform.LUT) *Image {
	out := New(m.W, m.H)
	for i, p := range m.Pix {
		out.Pix[i] = lut[p]
	}
	return out
}

// ApplyLUTInto is ApplyLUT writing into a caller-provided (typically
// pooled) destination of the same geometry.
func (m *Image) ApplyLUTInto(lut *transform.LUT, dst *Image) error {
	if dst == nil {
		return errors.New("rgb: ApplyLUTInto with nil destination")
	}
	if m.W != dst.W || m.H != dst.H {
		return fmt.Errorf("rgb: ApplyLUTInto geometry mismatch %dx%d vs %dx%d",
			m.W, m.H, dst.W, dst.H)
	}
	for i, p := range m.Pix {
		dst.Pix[i] = lut[p]
	}
	return nil
}

// LumaInto writes the Rec. 601 luma plane — the grayscale field the
// HEBS statistics (histogram, admissible range, β) are computed on —
// into a caller-provided (typically pooled) destination of the same
// geometry.
func (m *Image) LumaInto(dst *gray.Image) error {
	if dst == nil {
		return errors.New("rgb: LumaInto with nil destination")
	}
	if m.W != dst.W || m.H != dst.H {
		return fmt.Errorf("rgb: LumaInto geometry mismatch %dx%d vs %dx%d",
			m.W, m.H, dst.W, dst.H)
	}
	for p := 0; p < m.W*m.H; p++ {
		r := int(m.Pix[3*p])
		g := int(m.Pix[3*p+1])
		b := int(m.Pix[3*p+2])
		dst.Pix[p] = uint8((299*r + 587*g + 114*b + 500) / 1000)
	}
	return nil
}

// FromStdImage converts any image.Image.
func FromStdImage(src image.Image) *Image {
	bounds := src.Bounds()
	out := New(bounds.Dx(), bounds.Dy())
	for y := 0; y < bounds.Dy(); y++ {
		for x := 0; x < bounds.Dx(); x++ {
			c := color.RGBAModel.Convert(src.At(bounds.Min.X+x, bounds.Min.Y+y)).(color.RGBA)
			out.Set(x, y, c.R, c.G, c.B)
		}
	}
	return out
}

// ToStdImage converts to *image.RGBA sharing no storage.
func (m *Image) ToStdImage() *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			r, g, b := m.At(x, y)
			out.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return out
}

// FromGray lifts a grayscale image to a neutral color image (useful
// for composing test scenes).
func FromGray(g *gray.Image) *Image {
	out := New(g.W, g.H)
	for p, v := range g.Pix {
		out.Pix[3*p] = v
		out.Pix[3*p+1] = v
		out.Pix[3*p+2] = v
	}
	return out
}
