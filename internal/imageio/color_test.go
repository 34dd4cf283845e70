package imageio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"hebs/internal/gray"
	"hebs/internal/rgb"
)

func colorTestImage() *rgb.Image {
	m := rgb.New(5, 4)
	for p := 0; p < 20; p++ {
		m.Pix[3*p] = uint8(p * 13)
		m.Pix[3*p+1] = uint8(p * 7)
		m.Pix[3*p+2] = uint8(255 - p*11)
	}
	return m
}

func TestPPMRoundTrip(t *testing.T) {
	m := colorTestImage()
	var buf bytes.Buffer
	if err := EncodePPM(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P6\n5 4\n255\n") {
		t.Errorf("PPM header wrong: %q", buf.String()[:12])
	}
	back, err := DecodePNMColor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("PPM round trip lost data")
	}
}

func TestPNGColorRoundTrip(t *testing.T) {
	m := colorTestImage()
	var buf bytes.Buffer
	if err := EncodePNGColor(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNGColor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("PNG color round trip lost data")
	}
}

func TestDecodePNMColorASCII(t *testing.T) {
	src := "P3\n2 1\n255\n255 0 0  0 0 255\n"
	m, err := DecodePNMColor(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	r, g, b := m.At(0, 0)
	if r != 255 || g != 0 || b != 0 {
		t.Errorf("pixel 0 = %d,%d,%d", r, g, b)
	}
	r, g, b = m.At(1, 0)
	if r != 0 || g != 0 || b != 255 {
		t.Errorf("pixel 1 = %d,%d,%d", r, g, b)
	}
}

func TestDecodePNMColorGrayLift(t *testing.T) {
	src := "P2\n1 1\n255\n77\n"
	m, err := DecodePNMColor(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	r, g, b := m.At(0, 0)
	if r != 77 || g != 77 || b != 77 {
		t.Errorf("gray lift = %d,%d,%d, want neutral 77", r, g, b)
	}
}

func TestDecodePNMColor16Bit(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("P6\n1 1\n65535\n")
	buf.Write([]byte{0xff, 0xff, 0x80, 0x00, 0x00, 0x00})
	m, err := DecodePNMColor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, g, b := m.At(0, 0)
	if r != 255 || g < 127 || g > 129 || b != 0 {
		t.Errorf("16-bit scaling = %d,%d,%d", r, g, b)
	}
}

func TestDecodePNMColorErrors(t *testing.T) {
	cases := []string{
		"P9\n1 1\n255\n0\n",
		"P3\n0 1\n255\n",
		"P3\n1 1\n0\n0 0 0\n",
		"P3\n2 2\n255\n1 2 3\n",
		"P3\n1 1\n255\n300 0 0\n",
		"",
	}
	for i, src := range cases {
		if _, err := DecodePNMColor(strings.NewReader(src)); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestLoadSaveColorFiles(t *testing.T) {
	dir := t.TempDir()
	m := colorTestImage()
	for _, name := range []string{"a.ppm", "b.png"} {
		path := filepath.Join(dir, name)
		if err := SaveColor(path, m); err != nil {
			t.Fatalf("SaveColor(%s): %v", name, err)
		}
		back, err := LoadColor(path)
		if err != nil {
			t.Fatalf("LoadColor(%s): %v", name, err)
		}
		if !m.Equal(back) {
			t.Errorf("%s round trip lost data", name)
		}
	}
	if err := SaveColor(filepath.Join(dir, "x.bmp"), m); err == nil {
		t.Error("unsupported color extension should error")
	}
	if _, err := LoadColor(filepath.Join(dir, "missing.ppm")); err == nil {
		t.Error("missing file should error")
	}
}

func TestLoadColorOfGrayFileIsNeutral(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.pgm")
	g := testImage()
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := LoadColor(path)
	if err != nil {
		t.Fatal(err)
	}
	l := gray.New(m.W, m.H)
	if err := m.LumaInto(l); err != nil {
		t.Fatal(err)
	}
	if !l.Equal(g) {
		t.Error("gray file loaded in color should have identical luma")
	}
}
