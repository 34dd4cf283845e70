package rgb

import (
	"image"
	"image/color"
	"testing"
	"testing/quick"

	"hebs/internal/gray"
	"hebs/internal/transform"
)

func TestNewAndAccess(t *testing.T) {
	m := New(4, 3)
	if len(m.Pix) != 36 {
		t.Fatalf("pix len = %d, want 36", len(m.Pix))
	}
	m.Set(2, 1, 10, 20, 30)
	r, g, b := m.At(2, 1)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("At = %d,%d,%d", r, g, b)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,1) should panic")
		}
	}()
	New(0, 1)
}

func TestAccessPanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds At should panic")
		}
	}()
	m.At(2, 0)
}

func TestCloneEqual(t *testing.T) {
	m := New(3, 3)
	m.Set(1, 1, 5, 6, 7)
	c := m.Clone()
	if !m.Equal(c) {
		t.Error("clone not equal")
	}
	c.Set(0, 0, 1, 1, 1)
	if m.Equal(c) {
		t.Error("mutated clone still equal")
	}
	if m.Equal(nil) || m.Equal(New(3, 4)) {
		t.Error("nil / different shape should not be equal")
	}
}

// luma returns m's luma plane through LumaInto.
func luma(t *testing.T, m *Image) *gray.Image {
	t.Helper()
	out := gray.New(m.W, m.H)
	if err := m.LumaInto(out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLumaWeights(t *testing.T) {
	m := New(3, 1)
	m.Set(0, 0, 255, 0, 0)
	m.Set(1, 0, 0, 255, 0)
	m.Set(2, 0, 0, 0, 255)
	l := luma(t, m)
	if l.At(0, 0) != 76 { // 0.299*255
		t.Errorf("red luma = %d, want 76", l.At(0, 0))
	}
	if l.At(1, 0) != 150 { // 0.587*255
		t.Errorf("green luma = %d, want 150", l.At(1, 0))
	}
	if l.At(2, 0) != 29 { // 0.114*255
		t.Errorf("blue luma = %d, want 29", l.At(2, 0))
	}
}

func TestLumaMatchesGrayConversion(t *testing.T) {
	// Neutral (gray) color pixels have luma equal to their value.
	f := func(v uint8) bool {
		m := New(1, 1)
		m.Set(0, 0, v, v, v)
		return luma(t, m).At(0, 0) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyLUTPerChannel(t *testing.T) {
	m := New(1, 1)
	m.Set(0, 0, 10, 100, 200)
	lut, err := transform.ScaleToRange(0, 127)
	if err != nil {
		t.Fatal(err)
	}
	out := m.ApplyLUT(lut)
	r, g, b := out.At(0, 0)
	if r != lut[10] || g != lut[100] || b != lut[200] {
		t.Errorf("per-channel application wrong: %d,%d,%d", r, g, b)
	}
	// Source untouched.
	r0, _, _ := m.At(0, 0)
	if r0 != 10 {
		t.Error("ApplyLUT mutated source")
	}
}

func TestApplyLUTPreservesGrayNeutrality(t *testing.T) {
	// Identical channels stay identical: no hue shift on neutral pixels.
	lut, err := transform.ScaleToRange(0, 180)
	if err != nil {
		t.Fatal(err)
	}
	f := func(v uint8) bool {
		m := New(1, 1)
		m.Set(0, 0, v, v, v)
		r, g, b := m.ApplyLUT(lut).At(0, 0)
		return r == g && g == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStdImageRoundTrip(t *testing.T) {
	m := New(5, 4)
	for p := 0; p < 20; p++ {
		m.Pix[3*p] = uint8(p * 11)
		m.Pix[3*p+1] = uint8(p * 7)
		m.Pix[3*p+2] = uint8(p * 3)
	}
	back := FromStdImage(m.ToStdImage())
	if !m.Equal(back) {
		t.Error("std image round trip lost data")
	}
}

func TestFromStdImageOffsetBounds(t *testing.T) {
	src := image.NewRGBA(image.Rect(5, 5, 8, 7))
	src.SetRGBA(6, 6, color.RGBA{R: 9, G: 8, B: 7, A: 255})
	m := FromStdImage(src)
	if m.W != 3 || m.H != 2 {
		t.Fatalf("shape %dx%d", m.W, m.H)
	}
	r, g, b := m.At(1, 1)
	if r != 9 || g != 8 || b != 7 {
		t.Errorf("offset pixel lost: %d,%d,%d", r, g, b)
	}
}

func TestFromGray(t *testing.T) {
	g := gray.New(2, 1)
	g.Pix[0], g.Pix[1] = 40, 200
	m := FromGray(g)
	r, gg, b := m.At(1, 0)
	if r != 200 || gg != 200 || b != 200 {
		t.Errorf("FromGray pixel = %d,%d,%d", r, gg, b)
	}
	if !luma(t, m).Equal(g) {
		t.Error("FromGray luma should round trip")
	}
}

func TestApplyLUTIntoErrors(t *testing.T) {
	lut := new(transform.LUT)
	src := New(64, 64)
	if err := src.ApplyLUTInto(lut, nil); err == nil {
		t.Fatal("nil destination accepted")
	}
	if err := src.ApplyLUTInto(lut, New(64, 63)); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}
