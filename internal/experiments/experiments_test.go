package experiments

import (
	"math"
	"strings"
	"testing"
)

// fastCfg keeps the full-suite experiments quick in tests.
var fastCfg = Config{ImageSize: 48}

func TestFigure6aShape(t *testing.T) {
	pts, err := Figure6a(Config{}, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 21 {
		t.Fatalf("points = %d", len(pts))
	}
	// Monotone non-decreasing, ends at 2.62, saturation knee visible:
	// slope above the knee far exceeds slope below.
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y-1e-12 {
			t.Fatalf("power decreases at sample %d", i)
		}
	}
	if math.Abs(pts[20].Y-2.62) > 1e-9 {
		t.Errorf("P(1) = %v, want 2.62", pts[20].Y)
	}
	slopeLow := (pts[12].Y - pts[8].Y) / (pts[12].X - pts[8].X)    // β in 0.4..0.6
	slopeHigh := (pts[20].Y - pts[18].Y) / (pts[20].X - pts[18].X) // β in 0.9..1
	if slopeHigh < 2*slopeLow {
		t.Errorf("no saturation knee: slopes %v vs %v", slopeLow, slopeHigh)
	}
	if _, err := Figure6a(Config{}, 1); err == nil {
		t.Error("too few samples should error")
	}
}

func TestFigure6bShape(t *testing.T) {
	pts, err := Figure6b(Config{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].Y-0.993) > 1e-12 {
		t.Errorf("P(0) = %v, want 0.993", pts[0].Y)
	}
	// Quadratic with positive coefficients: increasing, small swing.
	if pts[10].Y <= pts[0].Y {
		t.Error("panel power should rise with transmittance under Eq. 12")
	}
	if (pts[10].Y-pts[0].Y)/pts[0].Y > 0.10 {
		t.Error("panel power swing should be small (the paper's premise)")
	}
	if _, err := Figure6b(Config{}, 0); err == nil {
		t.Error("too few samples should error")
	}
}

func TestFigure7CurveUsable(t *testing.T) {
	c, err := Figure7(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Samples) != 19*len(c.Ranges) {
		t.Errorf("samples = %d, want %d", len(c.Samples), 19*len(c.Ranges))
	}
	// Distortion at the top of the sweep is small; at the bottom it is
	// clearly larger (Figure 7's shape).
	top := c.PredictedDistortion(250, false)
	bottom := c.PredictedDistortion(50, false)
	if !(bottom > 2*top) {
		t.Errorf("curve too flat: D(50)=%v, D(250)=%v", bottom, top)
	}
}

func TestFigure8RowsShape(t *testing.T) {
	rows, err := Figure8(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(Figure8Images) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		r220, r100 := rows[i], rows[i+1]
		if r220.Range != 220 || r100.Range != 100 {
			t.Fatalf("row order wrong: %+v %+v", r220, r100)
		}
		if r220.Name != r100.Name {
			t.Fatal("row pairing wrong")
		}
		// Paper's Figure 8 pattern: smaller range -> more saving, more
		// (or equal) distortion.
		if r100.Saving <= r220.Saving {
			t.Errorf("%s: saving at R=100 (%v) not above R=220 (%v)",
				r220.Name, r100.Saving, r220.Saving)
		}
		if r100.Distortion+0.5 < r220.Distortion {
			t.Errorf("%s: distortion fell with deeper compression: %v vs %v",
				r220.Name, r100.Distortion, r220.Distortion)
		}
	}
}

func TestTable1ShapeAndMonotonicity(t *testing.T) {
	res, err := Table1(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 19 {
		t.Fatalf("rows = %d, want 19", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Savings) != 3 {
			t.Fatalf("%s: %d savings", row.Name, len(row.Savings))
		}
		// Looser budget never saves less (Table 1's pattern).
		for i := 1; i < len(row.Savings); i++ {
			if row.Savings[i] < row.Savings[i-1]-1e-9 {
				t.Errorf("%s: saving fell from %v to %v at budget %v",
					row.Name, row.Savings[i-1], row.Savings[i], res.Budgets[i])
			}
		}
	}
	// Averages rise with the budget and sit in a plausible band.
	if !(res.Averages[0] < res.Averages[1] && res.Averages[1] < res.Averages[2]) {
		t.Errorf("averages not increasing: %v", res.Averages)
	}
	if res.Averages[0] < 25 || res.Averages[0] > 70 {
		t.Errorf("5%% average %v outside plausible band", res.Averages[0])
	}
}

func TestComparisonOrdering(t *testing.T) {
	rows, err := Comparison(fastCfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	bySaving := map[string]float64{}
	for _, r := range rows {
		bySaving[r.Method] = r.MeanSaving
		if r.MeanBeta <= 0 || r.MeanBeta > 1 {
			t.Errorf("%s: mean β %v out of range", r.Method, r.MeanBeta)
		}
	}
	// The paper's claim: HEBS > CBCS >= DLS variants.
	if bySaving["hebs"] <= bySaving["cbcs"] {
		t.Errorf("HEBS (%v) does not beat CBCS (%v)", bySaving["hebs"], bySaving["cbcs"])
	}
	if bySaving["cbcs"] < bySaving["dls-contrast"]-2 {
		t.Errorf("CBCS (%v) clearly below DLS-contrast (%v)",
			bySaving["cbcs"], bySaving["dls-contrast"])
	}
	if _, err := Comparison(fastCfg, 0); err == nil {
		t.Error("zero budget should error")
	}
}

func TestAblationPLCSegments(t *testing.T) {
	rows, err := AblationPLCSegments(fastCfg, 150, []int{2, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More segments -> lower approximation error.
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanPLCError > rows[i-1].MeanPLCError+1e-9 {
			t.Errorf("PLC error rose at m=%d: %v > %v",
				rows[i].Segments, rows[i].MeanPLCError, rows[i-1].MeanPLCError)
		}
	}
	if _, err := AblationPLCSegments(fastCfg, 150, nil); err == nil {
		t.Error("empty budgets should error")
	}
}

func TestAblationMetrics(t *testing.T) {
	rows, err := AblationMetrics(fastCfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (uqi, ssim, ssim-gauss, ms-ssim)", len(rows))
	}
	for _, r := range rows {
		if r.MeanRange < 2 || r.MeanRange > 255 {
			t.Errorf("%s: mean range %v out of domain", r.Metric, r.MeanRange)
		}
		if r.MeanSaving <= 0 {
			t.Errorf("%s: mean saving %v", r.Metric, r.MeanSaving)
		}
	}
}

func TestAblationEqualizeVsClip(t *testing.T) {
	rows, err := AblationEqualizeVsClip(fastCfg, []int{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The paper's core claim: histogram-aware merging discards fewer
		// pixels than blind linear reduction.
		if r.MeanHEBSMerged > r.MeanLinearMerged+0.5 {
			t.Errorf("R=%d: HEBS merged %v%% above linear %v%%",
				r.Range, r.MeanHEBSMerged, r.MeanLinearMerged)
		}
		if r.AdvantageRatio < 1 {
			t.Errorf("R=%d: advantage ratio %v < 1", r.Range, r.AdvantageRatio)
		}
		if r.MeanHEBSUQI < 0 || r.MeanLinearUQI < 0 {
			t.Errorf("R=%d: negative UQI distortion", r.Range)
		}
	}
	if _, err := AblationEqualizeVsClip(fastCfg, nil); err == nil {
		t.Error("empty ranges should error")
	}
}

func TestAblationEqualizers(t *testing.T) {
	rows, err := AblationEqualizers(fastCfg, 140)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byMethod := map[string]AblationEqualizerRow{}
	for _, r := range rows {
		byMethod[r.Method] = r
		if r.MeanDistortion < 0 || r.MeanMerged < 0 || r.MeanBrightShift < 0 {
			t.Errorf("%s: negative means %+v", r.Method, r)
		}
	}
	// Contrast-limited equalization is less aggressive than plain GHE at
	// the same range, so its reconstruction distortion cannot be larger.
	if byMethod["clipped"].MeanDistortion > byMethod["ghe"].MeanDistortion+0.5 {
		t.Errorf("clipped distortion %v above GHE %v",
			byMethod["clipped"].MeanDistortion, byMethod["ghe"].MeanDistortion)
	}
	// BBHE preserves brightness better than plain GHE.
	if byMethod["bbhe"].MeanBrightShift >= byMethod["ghe"].MeanBrightShift {
		t.Errorf("BBHE brightness shift %v not below GHE %v",
			byMethod["bbhe"].MeanBrightShift, byMethod["ghe"].MeanBrightShift)
	}
}

func TestBusEncodings(t *testing.T) {
	rows, err := BusEncodings(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0].Encoding != "raw" {
		t.Fatalf("first row should be raw, got %s", rows[0].Encoding)
	}
	for _, r := range rows[1:] {
		if r.MeanSavingsVersusRaw <= 0 {
			t.Errorf("%s: no mean transition saving (%v%%)", r.Encoding, r.MeanSavingsVersusRaw)
		}
	}
}

func TestAblationLCModels(t *testing.T) {
	rows, err := AblationLCModels(fastCfg, 150, []int{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 models x 2 budgets)", len(rows))
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Model+"/"+string(rune('0'+r.Segments/10))+string(rune('0'+r.Segments%10))] = r.MeanMSE
		if r.MeanMSE < 0 {
			t.Errorf("%s m=%d: negative MSE", r.Model, r.Segments)
		}
	}
	// The linear cell realizes Λ essentially exactly at any tap count;
	// the S-curve cell improves with more taps.
	if byKey["linear/02"] > 0.5 {
		t.Errorf("linear cell at m=2 should be near-exact: %v", byKey["linear/02"])
	}
	if byKey["s-curve(8)/10"] >= byKey["s-curve(8)/02"] {
		t.Errorf("S-curve cell should improve with taps: m=10 %v vs m=2 %v",
			byKey["s-curve(8)/10"], byKey["s-curve(8)/02"])
	}
	if _, err := AblationLCModels(fastCfg, 150, nil); err == nil {
		t.Error("empty budgets should error")
	}
}

func TestNativeVsPerceptual(t *testing.T) {
	rows, err := NativeVsPerceptual(fastCfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		// The perceptual measure admits at least as much dimming on
		// average (the paper's overestimation argument).
		if r.OverestimatePct < -2 {
			t.Errorf("%s: native policy saves clearly more than perceptual (%+.1f pts)",
				r.Method, -r.OverestimatePct)
		}
	}
	if _, err := NativeVsPerceptual(fastCfg, 0); err == nil {
		t.Error("zero budget should error")
	}
}

func TestRenderTable1Layout(t *testing.T) {
	res, err := Table1(Config{ImageSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	tb := RenderTable1(res)
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "lena") || !strings.Contains(out, "Average") {
		t.Errorf("table missing rows:\n%s", out)
	}
	if !strings.Contains(out, "Distortion = 5%") {
		t.Errorf("table missing budget headers:\n%s", out)
	}
}

func TestRenderCurve(t *testing.T) {
	pts, err := Figure6a(Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	tb := RenderCurve(pts, "beta", "power")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "beta,power\n") {
		t.Errorf("csv header wrong: %s", sb.String())
	}
	if n := strings.Count(sb.String(), "\n"); n != 1+5 {
		t.Errorf("csv has %d lines, want a header and 5 rows", n)
	}
}
