package backlight

import (
	"errors"
	"math"
	"testing"

	"hebs/internal/gray"
	"hebs/internal/power"
)

// contentOf summarizes a whole frame in one row-major pass, the
// accumulation order of power.TFTPanel.PowerOf: the oracle that
// ContentOfRect must reproduce on a full-frame rectangle.
func contentOf(img *gray.Image) Content {
	var sx, sxx float64
	for _, p := range img.Pix {
		x := float64(p) / 255.0
		sx += x
		sxx += x * x
	}
	return Content{SumLuma: sx, SumLumaSq: sxx, Pixels: len(img.Pix), Total: len(img.Pix)}
}

// testImage builds a deterministic non-uniform frame.
func testImage(w, h int) *gray.Image {
	img := gray.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.Pix[y*w+x] = uint8((x*7 + y*13 + (x*y)%31) % 256)
		}
	}
	return img
}

func TestGridZoneRectPartitions(t *testing.T) {
	for _, g := range []Grid{{1, 1}, {2, 2}, {3, 5}, {4, 4}, {7, 3}} {
		w, h := 101, 67
		covered := make([]int, w*h)
		for k := 0; k < g.Zones(); k++ {
			x0, y0, x1, y1 := g.ZoneRect(k, w, h)
			if x0 > x1 || y0 > y1 || x0 < 0 || y0 < 0 || x1 > w || y1 > h {
				t.Fatalf("grid %+v zone %d: bad rect (%d,%d)-(%d,%d)", g, k, x0, y0, x1, y1)
			}
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					covered[y*w+x]++
				}
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("grid %+v: pixel %d covered %d times", g, i, c)
			}
		}
	}
}

func TestContentOfRectFullFrameMatchesContentOf(t *testing.T) {
	img := testImage(33, 21)
	whole := contentOf(img)
	rect := ContentOfRect(img, 0, 0, img.W, img.H, len(img.Pix))
	if whole != rect {
		t.Fatalf("full-frame rect content %+v != contentOf %+v", rect, whole)
	}
}

func TestContentOfRectPartitionSums(t *testing.T) {
	img := testImage(40, 24)
	g := Grid{Rows: 3, Cols: 4}
	var sx, sxx float64
	pixels := 0
	for k := 0; k < g.Zones(); k++ {
		x0, y0, x1, y1 := g.ZoneRect(k, img.W, img.H)
		c := ContentOfRect(img, x0, y0, x1, y1, len(img.Pix))
		sx += c.SumLuma
		sxx += c.SumLumaSq
		pixels += c.Pixels
	}
	whole := contentOf(img)
	if pixels != whole.Pixels {
		t.Fatalf("partition pixel count %d != %d", pixels, whole.Pixels)
	}
	if math.Abs(sx-whole.SumLuma) > 1e-9 || math.Abs(sxx-whole.SumLumaSq) > 1e-9 {
		t.Fatalf("partition sums (%v,%v) != whole (%v,%v)", sx, sxx, whole.SumLuma, whole.SumLumaSq)
	}
}

// TestCCFLBitIdenticalToSubsystem is the package-local half of the
// regression anchor: the CCFL backend's ZonePower total must equal
// power.Subsystem.Power exactly (==, not within epsilon).
func TestCCFLBitIdenticalToSubsystem(t *testing.T) {
	img := testImage(64, 48)
	b := DefaultCCFL()
	sub := power.DefaultSubsystem
	for _, beta := range []float64{1, 0.8234, 0.5, 93.0 / 255.0, 1.0 / 255.0} {
		want, err := sub.Power(img, beta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.ZonePower(beta, contentOf(img))
		if err != nil {
			t.Fatal(err)
		}
		//hebslint:allow floateq bit-identity is the contract under test
		if got.Total() != want {
			t.Fatalf("β=%v: backend total %v != subsystem %v", beta, got.Total(), want)
		}
	}
}

func TestLEDFullDriveMatchesPeak(t *testing.T) {
	led, err := NewLED(LEDOptions{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(64, 64)
	total := len(img.Pix)
	var ill float64
	for k := 0; k < led.Grid().Zones(); k++ {
		x0, y0, x1, y1 := led.Grid().ZoneRect(k, img.W, img.H)
		p, err := led.ZonePower(1, ContentOfRect(img, x0, y0, x1, y1, total))
		if err != nil {
			t.Fatal(err)
		}
		ill += p.Illumination
	}
	peak := power.DefaultCCFL.FullPower()
	if math.Abs(ill-peak) > 1e-9 {
		t.Fatalf("full-drive illumination %v != calibrated peak %v", ill, peak)
	}
}

func TestLEDQuantizeBetaRoundsUp(t *testing.T) {
	led, err := NewLED(LEDOptions{Rows: 2, Cols: 2, PWMBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{0, 0.001, 0.26, 0.5, 0.93, 1} {
		q := led.QuantizeBeta(beta)
		if q < beta {
			t.Fatalf("quantize(%v) = %v dimmed below target", beta, q)
		}
		if q > 1 {
			t.Fatalf("quantize(%v) = %v above 1", beta, q)
		}
		//hebslint:allow floateq idempotence on the exact grid value
		if qq := led.QuantizeBeta(q); qq != q {
			t.Fatalf("quantize not idempotent: %v -> %v -> %v", beta, q, qq)
		}
	}
}

func TestOLEDPowerContentProportional(t *testing.T) {
	o := DefaultOLED()
	dark := contentOf(gray.New(32, 32)) // all zeros
	p, err := o.ZonePower(1, dark)
	if err != nil {
		t.Fatal(err)
	}
	if p.Illumination != 0 {
		t.Fatalf("black frame emissive power %v, want 0", p.Illumination)
	}
	white := gray.New(32, 32)
	for i := range white.Pix {
		white.Pix[i] = 255
	}
	pw, err := o.ZonePower(1, contentOf(white))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pw.Illumination-DefaultOLEDPeakPower) > 1e-9 {
		t.Fatalf("white frame emissive power %v, want %v", pw.Illumination, DefaultOLEDPeakPower)
	}
	half, err := o.ZonePower(0.5, contentOf(white))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half.Illumination-DefaultOLEDPeakPower/2) > 1e-9 {
		t.Fatalf("half brightness %v, want %v", half.Illumination, DefaultOLEDPeakPower/2)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		name string
		grid Grid
	}{
		{"ccfl", "ccfl", Grid{1, 1}},
		{"oled", "oled", Grid{1, 1}},
		{"led:4x4", "led:4x4", Grid{4, 4}},
		{"led:1x8", "led:1x8", Grid{1, 8}},
	}
	for _, c := range cases {
		b, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if b.Name() != c.name || b.Grid() != c.grid {
			t.Fatalf("Parse(%q) = %s %+v, want %s %+v", c.spec, b.Name(), b.Grid(), c.name, c.grid)
		}
	}
	for _, spec := range []string{"", "lcd", "led:", "led:4", "led:0x4", "led:4x0", "led:999x1", "led:axb"} {
		_, err := Parse(spec)
		if err == nil {
			t.Fatalf("Parse(%q) accepted", spec)
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("Parse(%q) error %T is not *SpecError", spec, err)
		}
	}
}
