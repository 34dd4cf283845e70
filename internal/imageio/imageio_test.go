package imageio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"hebs/internal/gray"
)

func testImage() *gray.Image {
	m := gray.New(7, 5)
	for i := range m.Pix {
		m.Pix[i] = uint8(i * 37)
	}
	return m
}

func TestPGMBinaryRoundTrip(t *testing.T) {
	m := testImage()
	var buf bytes.Buffer
	if err := EncodePGM(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("binary PGM round trip lost data")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	m := testImage()
	var buf bytes.Buffer
	if err := EncodePNG(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("PNG round trip lost data")
	}
}

func TestDecodePNMComments(t *testing.T) {
	src := "P2 # magic\n# a comment line\n2 2 # dims\n255\n0 64\n128 255\n"
	m, err := DecodePNM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{0, 64, 128, 255}
	for i, w := range want {
		if m.Pix[i] != w {
			t.Errorf("pix[%d] = %d, want %d", i, m.Pix[i], w)
		}
	}
}

func TestDecodePPMColorLuma(t *testing.T) {
	// One red, one white pixel, ASCII P3.
	src := "P3\n2 1\n255\n255 0 0  255 255 255\n"
	m, err := DecodePNM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) < 70 || m.At(0, 0) > 82 {
		t.Errorf("red luma = %d, want ~76", m.At(0, 0))
	}
	if m.At(1, 0) != 255 {
		t.Errorf("white luma = %d, want 255", m.At(1, 0))
	}
}

func TestDecodePPMBinary(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("P6\n1 1\n255\n")
	buf.Write([]byte{0, 255, 0}) // pure green
	m, err := DecodePNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) < 145 || m.At(0, 0) > 155 {
		t.Errorf("green luma = %d, want ~150", m.At(0, 0))
	}
}

func TestDecode16BitMaxval(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("P5\n2 1\n65535\n")
	buf.Write([]byte{0xFF, 0xFF, 0x00, 0x00})
	m, err := DecodePNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 255 || m.At(1, 0) != 0 {
		t.Errorf("16-bit scaling wrong: %d %d", m.At(0, 0), m.At(1, 0))
	}
}

func TestDecodeNonPowerMaxval(t *testing.T) {
	src := "P2\n2 1\n100\n0 100\n"
	m, err := DecodePNM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 0 || m.At(1, 0) != 255 {
		t.Errorf("maxval=100 scaling: %d %d, want 0 255", m.At(0, 0), m.At(1, 0))
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad magic":        "P9\n1 1\n255\n0\n",
		"zero width":       "P2\n0 1\n255\n",
		"huge width":       "P2\n99999999 1\n255\n0\n",
		"zero maxval":      "P2\n1 1\n0\n0\n",
		"huge maxval":      "P2\n1 1\n70000\n0\n",
		"truncated ascii":  "P2\n2 2\n255\n1 2 3\n",
		"non-numeric":      "P2\nab 1\n255\n0\n",
		"value over max":   "P2\n1 1\n100\n101\n",
		"empty":            "",
		"negative-ish dim": "P2\n-1 1\n255\n0\n",
	}
	for name, src := range cases {
		if _, err := DecodePNM(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeTruncatedBinary(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("P5\n4 4\n255\n")
	buf.Write([]byte{1, 2, 3}) // 13 bytes short
	if _, err := DecodePNM(&buf); err == nil {
		t.Error("truncated binary should error")
	}
}

func TestLoadSaveFiles(t *testing.T) {
	dir := t.TempDir()
	m := testImage()
	for _, name := range []string{"a.pgm", "b.png"} {
		path := filepath.Join(dir, name)
		if err := Save(path, m); err != nil {
			t.Fatalf("Save(%s): %v", name, err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if !m.Equal(back) {
			t.Errorf("%s round trip lost data", name)
		}
	}
}

func TestSaveUnsupportedExtension(t *testing.T) {
	if err := Save(filepath.Join(t.TempDir(), "x.bmp"), testImage()); err == nil {
		t.Error("unsupported extension should error")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.pgm")); err == nil {
		t.Error("missing file should error")
	}
}

func TestLoadFallbackDecode(t *testing.T) {
	// A PNG saved with an unknown extension should still load via the
	// image.Decode fallback (png registers itself on import).
	dir := t.TempDir()
	path := filepath.Join(dir, "img.dat")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodePNG(f, testImage()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(testImage()) {
		t.Error("fallback decode lost data")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(pix []byte) bool {
		if len(pix) == 0 || len(pix) > 4096 {
			return true
		}
		m := &gray.Image{W: len(pix), H: 1, Pix: pix}
		var buf bytes.Buffer
		if err := EncodePGM(&buf, m); err != nil {
			return false
		}
		back, err := DecodePNM(&buf)
		return err == nil && m.Equal(back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
