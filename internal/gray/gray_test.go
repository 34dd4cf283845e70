package gray

import (
	"image"
	"image/color"
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	m := New(4, 3)
	if m.W != 4 || m.H != 3 || len(m.Pix) != 12 {
		t.Fatalf("unexpected shape: %dx%d len=%d", m.W, m.H, len(m.Pix))
	}
	m.Set(2, 1, 200)
	if m.At(2, 1) != 200 {
		t.Errorf("At(2,1) = %d, want 200", m.At(2, 1))
	}
	if m.Pix[1*4+2] != 200 {
		t.Error("Set did not write to the expected row-major offset")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestAtSetBoundsPanic(t *testing.T) {
	m := New(2, 2)
	for _, pt := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) should panic", pt[0], pt[1])
				}
			}()
			m.At(pt[0], pt[1])
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d,%d) should panic", pt[0], pt[1])
				}
			}()
			m.Set(pt[0], pt[1], 1)
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 10)
	c := m.Clone()
	c.Set(0, 0, 20)
	if m.At(0, 0) != 10 {
		t.Error("Clone shares storage with original")
	}
	if !m.Equal(m.Clone()) {
		t.Error("clone should equal original")
	}
}

func TestEqual(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	if !a.Equal(b) {
		t.Error("identical zero images should be equal")
	}
	b.Set(1, 1, 1)
	if a.Equal(b) {
		t.Error("differing images should not be equal")
	}
	if a.Equal(New(2, 3)) {
		t.Error("different shapes should not be equal")
	}
	if a.Equal(nil) {
		t.Error("nil should not be equal")
	}
}

func TestSubImage(t *testing.T) {
	m := New(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			m.Set(x, y, uint8(y*4+x))
		}
	}
	s, err := m.SubImage(image.Rect(1, 1, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if s.W != 2 || s.H != 2 {
		t.Fatalf("sub shape %dx%d, want 2x2", s.W, s.H)
	}
	want := []uint8{5, 6, 9, 10}
	for i, w := range want {
		if s.Pix[i] != w {
			t.Errorf("sub pix[%d] = %d, want %d", i, s.Pix[i], w)
		}
	}
	// Copies, not aliases.
	s.Set(0, 0, 99)
	if m.At(1, 1) != 5 {
		t.Error("SubImage aliases parent storage")
	}
}

func TestSubImageClipsAndErrors(t *testing.T) {
	m := New(3, 3)
	s, err := m.SubImage(image.Rect(2, 2, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if s.W != 1 || s.H != 1 {
		t.Errorf("clipped sub shape %dx%d, want 1x1", s.W, s.H)
	}
	if _, err := m.SubImage(image.Rect(5, 5, 9, 9)); err == nil {
		t.Error("disjoint rect should error")
	}
}

func TestFillAndStatistics(t *testing.T) {
	m := New(10, 10)
	m.Fill(100)
	st := m.Statistics()
	if st.Min != 100 || st.Max != 100 || st.Mean != 100 || st.Variance != 0 {
		t.Errorf("constant image stats wrong: %+v", st)
	}
	if st.NumLevels != 1 || st.DynamicRng != 0 {
		t.Errorf("constant image levels/range wrong: %+v", st)
	}
}

func TestStatisticsRamp(t *testing.T) {
	m := New(256, 1)
	for x := 0; x < 256; x++ {
		m.Set(x, 0, uint8(x))
	}
	st := m.Statistics()
	if st.Min != 0 || st.Max != 255 || st.DynamicRng != 255 || st.NumLevels != 256 {
		t.Errorf("ramp stats wrong: %+v", st)
	}
	if math.Abs(st.Mean-127.5) > 1e-9 {
		t.Errorf("ramp mean = %v, want 127.5", st.Mean)
	}
	// Variance of discrete uniform on 0..255 is (256^2-1)/12.
	want := (256.0*256.0 - 1) / 12.0
	if math.Abs(st.Variance-want) > 1e-6 {
		t.Errorf("ramp variance = %v, want %v", st.Variance, want)
	}
}

func TestStdImageRoundTrip(t *testing.T) {
	m := New(5, 4)
	for i := range m.Pix {
		m.Pix[i] = uint8(i * 13)
	}
	back := FromStdImage(m.ToStdImage())
	if !m.Equal(back) {
		t.Error("ToStdImage/FromStdImage round trip lost data")
	}
}

func TestFromStdImageColor(t *testing.T) {
	src := image.NewRGBA(image.Rect(0, 0, 2, 1))
	src.Set(0, 0, color.RGBA{R: 255, A: 255})
	src.Set(1, 0, color.RGBA{R: 255, G: 255, B: 255, A: 255})
	m := FromStdImage(src)
	// Pure red -> luma 76 under Rec.601 (the stdlib rounding).
	if m.At(0, 0) < 70 || m.At(0, 0) > 82 {
		t.Errorf("red luma = %d, want ~76", m.At(0, 0))
	}
	if m.At(1, 0) != 255 {
		t.Errorf("white luma = %d, want 255", m.At(1, 0))
	}
}

func TestFromStdImageOffsetBounds(t *testing.T) {
	src := image.NewGray(image.Rect(10, 20, 13, 22))
	src.SetGray(11, 21, color.Gray{Y: 77})
	m := FromStdImage(src)
	if m.W != 3 || m.H != 2 {
		t.Fatalf("shape %dx%d, want 3x2", m.W, m.H)
	}
	if m.At(1, 1) != 77 {
		t.Errorf("offset pixel lost: got %d", m.At(1, 1))
	}
}

func TestStatisticsPropertyBounds(t *testing.T) {
	f := func(seedPix []byte) bool {
		if len(seedPix) == 0 {
			seedPix = []byte{0}
		}
		w := len(seedPix)
		m := &Image{W: w, H: 1, Pix: seedPix}
		st := m.Statistics()
		return st.Min <= st.Max &&
			float64(st.Min) <= st.Mean && st.Mean <= float64(st.Max) &&
			st.Variance >= 0 &&
			st.NumLevels >= 1 && st.NumLevels <= 256 &&
			st.DynamicRng == int(st.Max)-int(st.Min)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if s := New(3, 2).String(); s != "gray.Image(3x2)" {
		t.Errorf("String = %q", s)
	}
}
