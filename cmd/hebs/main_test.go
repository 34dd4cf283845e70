package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hebs/internal/chart"
	"hebs/internal/imageio"
	"hebs/internal/rgb"
	"hebs/internal/sipi"
)

func TestRunBenchDistortion(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-bench", "lena", "-distortion", "10", "-resize", "64"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"admissible range R:", "backlight factor", "power saving:", "system saving:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRangeModeWithOutputs(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "out.pgm")
	prevFile := filepath.Join(dir, "prev.png")
	var sb strings.Builder
	err := run([]string{
		"-bench", "splash", "-range", "120", "-resize", "48",
		"-out", outFile, "-preview", prevFile, "-voltages",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PLRD reference voltages") {
		t.Error("voltage table missing")
	}
	tr, err := imageio.Load(outFile)
	if err != nil {
		t.Fatalf("transformed output unreadable: %v", err)
	}
	if st := tr.Statistics(); st.DynamicRng > 120 {
		t.Errorf("written transform exceeds range: %d", st.DynamicRng)
	}
	if _, err := imageio.Load(prevFile); err != nil {
		t.Fatalf("preview output unreadable: %v", err)
	}
}

func TestRunDitherOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dith.pgm")
	var sb strings.Builder
	if err := run([]string{"-bench", "pout", "-range", "80", "-resize", "48",
		"-dither", path}, &sb); err != nil {
		t.Fatal(err)
	}
	img, err := imageio.Load(path)
	if err != nil {
		t.Fatalf("dithered output unreadable: %v", err)
	}
	if img.W != 48 || img.H != 48 {
		t.Errorf("dithered shape %dx%d", img.W, img.H)
	}
}

func TestRunFileInput(t *testing.T) {
	dir := t.TempDir()
	img, err := sipi.Generate("girl", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "in.png")
	if err := imageio.Save(in, img); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-in", in, "-range", "150"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "48x48") {
		t.Errorf("did not report input size:\n%s", sb.String())
	}
}

func TestRunColorMode(t *testing.T) {
	dir := t.TempDir()
	// Build a color input: tinted benchmark image.
	lum, err := sipi.Generate("peppers", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	c := rgb.FromGray(lum)
	for p := 0; p < c.W*c.H; p++ {
		if int(c.Pix[3*p])+40 <= 255 {
			c.Pix[3*p] += 40
		}
	}
	in := filepath.Join(dir, "in.png")
	if err := imageio.SaveColor(in, c); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.ppm")
	prev := filepath.Join(dir, "prev.png")
	var sb strings.Builder
	if err := run([]string{"-in", in, "-color", "-range", "150",
		"-out", out, "-preview", prev}, &sb); err != nil {
		t.Fatal(err)
	}
	tr, err := imageio.LoadColor(out)
	if err != nil {
		t.Fatal(err)
	}
	if tr.W != 48 || tr.H != 48 {
		t.Errorf("color output shape %dx%d", tr.W, tr.H)
	}
	if _, err := imageio.LoadColor(prev); err != nil {
		t.Fatal(err)
	}
}

func TestRunColorModeErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "lena", "-color", "-range", "100"}, &sb); err == nil {
		t.Error("-color with -bench should error")
	}
	dir := t.TempDir()
	lum, err := sipi.Generate("lena", 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "in.png")
	if err := imageio.SaveColor(in, rgb.FromGray(lum)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", in, "-color", "-range", "100", "-resize", "16"}, &sb); err == nil {
		t.Error("-color with -resize should error")
	}
}

func TestRunArgumentErrors(t *testing.T) {
	cases := [][]string{
		{},                 // no input
		{"-bench", "lena"}, // no operating point
		{"-bench", "lena", "-distortion", "5", "-range", "100"}, // both
		{"-bench", "nonexistent", "-range", "100"},
		{"-in", "/nonexistent.png", "-range", "100"},
		{"-bench", "lena", "-in", "x.png", "-range", "100"},
		{"-bench", "lena", "-range", "400"},
		{"-bench", "lena", "-range", "100", "-resize", "-3"},
	}
	for i, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("case %d (%v) should error", i, args)
		}
	}
}

// TestRunZonedBackend: a multi-zone -backend runs without a PLRD
// driver or a PLC budget and rejects an explicit -segments, as it
// rejects -voltages; the 1×1 OLED grid is the panel's ladder and keeps
// -segments.
func TestRunZonedBackend(t *testing.T) {
	base := []string{"-bench", "lena", "-distortion", "10", "-resize", "64"}
	for _, extra := range [][]string{
		{"-backend", "led:4x4", "-zones"},
		{"-backend", "oled", "-segments", "4"},
	} {
		var sb strings.Builder
		if err := run(append(append([]string(nil), base...), extra...), &sb); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if !strings.Contains(sb.String(), "power saving:") {
			t.Errorf("%v: output missing the power saving:\n%s", extra, sb.String())
		}
	}
	for _, extra := range [][]string{
		{"-backend", "led:4x4", "-segments", "10"},
		{"-backend", "led:4x4", "-voltages"},
	} {
		var sb strings.Builder
		if err := run(append(append([]string(nil), base...), extra...), &sb); err == nil {
			t.Errorf("%v should error", extra)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-nosuchflag"}, &sb); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestRunWithShippedCurve(t *testing.T) {
	// Build and ship a curve, then run the lookup mode against it.
	dir := t.TempDir()
	curvePath := filepath.Join(dir, "curve.json")
	suite := []sipi.NamedImage{}
	for _, n := range []string{"lena", "housea"} {
		img, err := sipi.Generate(n, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, sipi.NamedImage{Name: n, Image: img})
	}
	curve, err := chart.Build(suite, chart.Options{Ranges: []int{60, 120, 180, 240}})
	if err != nil {
		t.Fatal(err)
	}
	if err := curve.SaveJSON(curvePath); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-bench", "girl", "-distortion", "10", "-curve", curvePath}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "admissible range R:") {
		t.Error("lookup run produced no range")
	}
	// A corrupt curve file errors cleanly.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", "girl", "-distortion", "10", "-curve", bad}, &sb); err == nil {
		t.Error("corrupt curve should error")
	}
}

func TestRunObservabilityArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	var sb strings.Builder
	if err := run([]string{"-bench", "lena", "-range", "150", "-resize", "48",
		"-trace-out", tracePath, "-metrics-out", metricsPath}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var spans []map[string]any
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s["name"].(string)] = true
	}
	for _, want := range []string{"core.Process", "stage.range_select", "stage.histogram",
		"stage.equalize", "stage.plc", "stage.driver", "stage.apply",
		"stage.distortion", "stage.power", "plc.dp"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
	data, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics not written: %v", err)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Gauges     map[string]float64        `json:"gauges"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if snap.Counters["core.frames_total"] < 1 {
		t.Error("metrics missing processed frame count")
	}
	if snap.Gauges["core.last_range"] != 150 {
		t.Errorf("last_range gauge = %v, want 150", snap.Gauges["core.last_range"])
	}
	if _, ok := snap.Histograms["core.stage.plc.seconds"]; !ok {
		t.Error("metrics missing per-stage latency histogram")
	}
}
