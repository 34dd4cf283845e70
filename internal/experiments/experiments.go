// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5) from this reproduction's substrates.
// Each experiment returns structured rows so the CLI harness, the Go
// benchmarks and the tests all drive the identical code path. The
// mapping from paper artifact to function is recorded in DESIGN.md's
// experiment index.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"hebs/internal/baseline"
	"hebs/internal/bus"
	"hebs/internal/chart"
	"hebs/internal/core"
	"hebs/internal/driver"
	"hebs/internal/parallel"
	"hebs/internal/power"
	"hebs/internal/quality"
	"hebs/internal/report"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// Config parameterizes an experiment run. The zero value selects the
// paper-faithful defaults.
type Config struct {
	// ImageSize is the benchmark image edge length (default
	// sipi.DefaultSize).
	ImageSize int
	// Subsystem is the power model (default LP064V1).
	Subsystem *power.Subsystem
	// Metric is the distortion measure (default UQI).
	Metric chart.Metric

	// Workers bounds the suite-wide fan-out (Table1, Comparison): 0 —
	// the default and the historical behavior — selects all CPUs, 1
	// runs serially, n > 1 bounds the pool at n. Results are
	// bit-identical at every setting (per-image slots, serial
	// reduction).
	Workers int

	// ctx carries cancellation into the suite fan-outs; nil means
	// context.Background(). Set via WithContext so Config literals in
	// existing callers keep working unchanged.
	ctx context.Context
}

// WithContext returns a copy of the config whose suite-wide
// experiments (Table1, Comparison) honor ctx: cancellation stops
// scheduling new images and surfaces ctx's error.
func (c Config) WithContext(ctx context.Context) Config {
	c.ctx = ctx
	return c
}

func (c Config) context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

func (c Config) size() int {
	if c.ImageSize <= 0 {
		return sipi.DefaultSize
	}
	return c.ImageSize
}

func (c Config) subsystem() power.Subsystem {
	if c.Subsystem != nil {
		return *c.Subsystem
	}
	return power.DefaultSubsystem
}

func (c Config) suite() ([]sipi.NamedImage, error) {
	return sipi.Suite(c.size(), c.size())
}

// CurvePoint is one sample of a characterization curve.
type CurvePoint struct {
	X, Y float64
}

// Figure6a regenerates the CCFL characterization: driver power as a
// function of the backlight factor β, exposing the two-piece linear
// model with the saturation knee at Cs ≈ 0.82.
func Figure6a(cfg Config, samples int) ([]CurvePoint, error) {
	if samples < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 samples, got %d", samples)
	}
	sub := cfg.subsystem()
	out := make([]CurvePoint, samples)
	for i := range out {
		beta := float64(i) / float64(samples-1)
		p, err := sub.CCFL.Power(beta)
		if err != nil {
			return nil, err
		}
		out[i] = CurvePoint{X: beta, Y: p}
	}
	return out, nil
}

// Figure6b regenerates the TFT panel characterization: panel power as
// a function of (uniform) pixel transmittance, the quadratic fit of
// Eq. 12.
func Figure6b(cfg Config, samples int) ([]CurvePoint, error) {
	if samples < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 samples, got %d", samples)
	}
	sub := cfg.subsystem()
	out := make([]CurvePoint, samples)
	for i := range out {
		x := float64(i) / float64(samples-1)
		p, err := sub.TFT.PowerAt(x)
		if err != nil {
			return nil, err
		}
		out[i] = CurvePoint{X: x, Y: p}
	}
	return out, nil
}

// Figure7 regenerates the distortion characteristic curve: the full
// (range, distortion) point cloud over the benchmark suite plus the
// entire-dataset and worst-case fits.
func Figure7(cfg Config) (*chart.Curve, error) {
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	return chart.Build(suite, chart.Options{
		Metric:    cfg.Metric,
		Subsystem: cfg.Subsystem,
	})
}

// Figure8Row is one cell block of Figure 8: an image processed at a
// fixed dynamic range.
type Figure8Row struct {
	Name       string
	Range      int
	Distortion float64 // achieved by the HEBS transform
	Saving     float64 // power saving percent
}

// Figure8Images are the six sample images shown in Figure 8 (the paper
// shows unnamed thumbnails; these six cover the suite's variety).
var Figure8Images = []string{"lena", "peppers", "girl", "splash", "west", "elaine"}

// Figure8 regenerates the sample-image grid: each image at dynamic
// range 220 and 100 with its achieved distortion and power saving.
func Figure8(cfg Config) ([]Figure8Row, error) {
	var rows []Figure8Row
	for _, name := range Figure8Images {
		img, err := sipi.Generate(name, cfg.size(), cfg.size())
		if err != nil {
			return nil, err
		}
		for _, r := range []int{220, 100} {
			res, err := core.Process(img, core.Options{
				DynamicRange: r,
				Metric:       cfg.Metric,
				Subsystem:    cfg.Subsystem,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Figure8Row{
				Name:       name,
				Range:      r,
				Distortion: res.AchievedDistortion,
				Saving:     res.PowerSavingPercent,
			})
		}
	}
	return rows, nil
}

// Table1Budgets are the three distortion levels of Table 1.
var Table1Budgets = []float64{5, 10, 20}

// Table1Row is one row of Table 1: an image's power saving at each
// distortion budget.
type Table1Row struct {
	Name    string
	Savings []float64 // aligned with Table1Budgets
	Ranges  []int     // the admissible range chosen per budget
}

// Table1Result is the full table plus its average row.
type Table1Result struct {
	Budgets  []float64
	Rows     []Table1Row
	Averages []float64
}

// Table1 regenerates the power-saving table: for every benchmark image
// and distortion budget, the per-image minimum admissible dynamic
// range is found (bisection on the image's own range-reduction
// distortion — the per-image characteristic), HEBS runs at that range,
// and the subsystem power saving is recorded.
func Table1(cfg Config) (*Table1Result, error) {
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	res := &Table1Result{
		Budgets:  append([]float64(nil), Table1Budgets...),
		Averages: make([]float64, len(Table1Budgets)),
		Rows:     make([]Table1Row, len(suite)),
	}
	// Images are independent: fan out, then reduce sequentially so the
	// averages are bit-identical to a serial run.
	err = parallel.ForEach(cfg.context(), len(suite), cfg.Workers, func(i int) error {
		ni := suite[i]
		row := Table1Row{Name: ni.Name}
		for _, budget := range Table1Budgets {
			out, err := core.ProcessContext(cfg.context(), ni.Image, core.Options{
				MaxDistortionPercent: budget,
				ExactSearch:          true,
				Metric:               cfg.Metric,
				Subsystem:            cfg.Subsystem,
			})
			if err != nil {
				return fmt.Errorf("experiments: %s at %v%%: %w", ni.Name, budget, err)
			}
			row.Savings = append(row.Savings, out.PowerSavingPercent)
			row.Ranges = append(row.Ranges, out.Range)
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		for bi, s := range row.Savings {
			res.Averages[bi] += s
		}
	}
	for i := range res.Averages {
		res.Averages[i] /= float64(len(res.Rows))
	}
	return res, nil
}

// ComparisonRow is one method's average saving at a matched distortion
// budget — the Section 5.2 claim that HEBS beats prior techniques.
type ComparisonRow struct {
	Method     string
	MeanSaving float64
	MeanBeta   float64
}

// Comparison runs HEBS, CBCS [5] and both DLS [4] variants over the
// suite at the same distortion budget and reports each method's mean
// power saving.
func Comparison(cfg Config, budget float64) ([]ComparisonRow, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("experiments: non-positive budget %v", budget)
	}
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	sub := cfg.subsystem()
	// Per-image, per-method (saving, beta) slots filled concurrently.
	const nMethods = 4
	type cell struct{ saving, beta float64 }
	cells := make([][nMethods]cell, len(suite))
	err = parallel.ForEach(cfg.context(), len(suite), cfg.Workers, func(i int) error {
		ni := suite[i]
		h, err := core.ProcessContext(cfg.context(), ni.Image, core.Options{
			MaxDistortionPercent: budget,
			ExactSearch:          true,
			Metric:               cfg.Metric,
			Subsystem:            cfg.Subsystem,
		})
		if err != nil {
			return err
		}
		cells[i][0] = cell{h.PowerSavingPercent, h.Beta}

		cb, err := baseline.CBCS(ni.Image, budget, cfg.Metric, sub)
		if err != nil {
			return err
		}
		cells[i][1] = cell{cb.PowerSavingPercent, cb.Beta}

		dc, err := baseline.DLSContrast(ni.Image, budget, cfg.Metric, sub)
		if err != nil {
			return err
		}
		cells[i][2] = cell{dc.PowerSavingPercent, dc.Beta}

		db, err := baseline.DLSBrightness(ni.Image, budget, cfg.Metric, sub)
		if err != nil {
			return err
		}
		cells[i][3] = cell{db.PowerSavingPercent, db.Beta}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(suite))
	order := []string{"hebs", "cbcs", "dls-contrast", "dls-brightness"}
	out := make([]ComparisonRow, nMethods)
	for m := 0; m < nMethods; m++ {
		row := ComparisonRow{Method: order[m]}
		for i := range cells {
			row.MeanSaving += cells[i][m].saving
			row.MeanBeta += cells[i][m].beta
		}
		row.MeanSaving /= n
		row.MeanBeta /= n
		out[m] = row
	}
	return out, nil
}

// NativeRow compares a method's native pixel-count policy against the
// same method driven by the perceptual (UQI) measure, both at the same
// nominal budget.
type NativeRow struct {
	Method           string
	MeanNativeSaving float64
	MeanUQISaving    float64
	// OverestimatePct is how much saving the native measure leaves on
	// the table: UQI − native, in percentage points.
	OverestimatePct float64
}

// NativeVsPerceptual quantifies Section 2's criticism of the prior
// techniques: distortion measured by counting saturated/clipped pixels
// overestimates visible damage, so the native DLS [4] and CBCS [5]
// policies dim less than the same techniques driven by the perceptual
// UQI measure at the same nominal budget.
func NativeVsPerceptual(cfg Config, budget float64) ([]NativeRow, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("experiments: non-positive budget %v", budget)
	}
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	sub := cfg.subsystem()
	rows := []NativeRow{{Method: "dls"}, {Method: "cbcs"}}
	for _, ni := range suite {
		dlsNative, err := baseline.SaturatedPixelPolicy(ni.Image, budget, sub)
		if err != nil {
			return nil, err
		}
		dlsUQI, err := baseline.DLSContrast(ni.Image, budget, cfg.Metric, sub)
		if err != nil {
			return nil, err
		}
		rows[0].MeanNativeSaving += dlsNative.PowerSavingPercent
		rows[0].MeanUQISaving += dlsUQI.PowerSavingPercent

		cbNative, err := baseline.CBCSNative(ni.Image, budget, sub)
		if err != nil {
			return nil, err
		}
		cbUQI, err := baseline.CBCS(ni.Image, budget, cfg.Metric, sub)
		if err != nil {
			return nil, err
		}
		rows[1].MeanNativeSaving += cbNative.PowerSavingPercent
		rows[1].MeanUQISaving += cbUQI.PowerSavingPercent
	}
	n := float64(len(suite))
	for i := range rows {
		rows[i].MeanNativeSaving /= n
		rows[i].MeanUQISaving /= n
		rows[i].OverestimatePct = rows[i].MeanUQISaving - rows[i].MeanNativeSaving
	}
	return rows, nil
}

// AblationPLCRow reports the cost of a PLC segment budget.
type AblationPLCRow struct {
	Segments     int
	MeanPLCError float64 // Φ vs Λ MSE, levels²
	MeanAchieved float64 // achieved distortion percent
}

// AblationPLCSegments quantifies DESIGN.md's segment-budget trade-off:
// hardware cost (number of controllable sources) against approximation
// error and achieved distortion at a fixed dynamic range.
func AblationPLCSegments(cfg Config, r int, budgets []int) ([]AblationPLCRow, error) {
	if len(budgets) == 0 {
		return nil, errors.New("experiments: no segment budgets")
	}
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	var rows []AblationPLCRow
	for _, m := range budgets {
		row := AblationPLCRow{Segments: m}
		for _, ni := range suite {
			res, err := core.Process(ni.Image, core.Options{
				DynamicRange: r,
				Segments:     m,
				Metric:       cfg.Metric,
				Subsystem:    cfg.Subsystem,
			})
			if err != nil {
				return nil, err
			}
			row.MeanPLCError += res.PLCError
			row.MeanAchieved += res.AchievedDistortion
		}
		row.MeanPLCError /= float64(len(suite))
		row.MeanAchieved /= float64(len(suite))
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationMetricRow reports how the distortion-metric choice moves the
// admissible range and hence the saving.
type AblationMetricRow struct {
	Metric     string
	MeanRange  float64
	MeanSaving float64
}

// AblationMetrics compares UQI against SSIM as the distortion measure
// at a fixed budget (the paper's stated future work).
func AblationMetrics(cfg Config, budget float64) ([]AblationMetricRow, error) {
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	metrics := []struct {
		name string
		m    chart.Metric
	}{
		{"uqi", quality.UQIMetric},
		{"ssim", quality.SSIMMetric},
		{"ssim-gauss", quality.SSIMGaussianMetric},
		{"ms-ssim", quality.MSSSIMMetric},
	}
	var rows []AblationMetricRow
	for _, mt := range metrics {
		row := AblationMetricRow{Metric: mt.name}
		for _, ni := range suite {
			res, err := core.Process(ni.Image, core.Options{
				MaxDistortionPercent: budget,
				ExactSearch:          true,
				Metric:               mt.m,
				Subsystem:            cfg.Subsystem,
			})
			if err != nil {
				return nil, err
			}
			row.MeanRange += float64(res.Range)
			row.MeanSaving += res.PowerSavingPercent
		}
		row.MeanRange /= float64(len(suite))
		row.MeanSaving /= float64(len(suite))
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationEqualizeRow compares equalization-driven merging against
// blind linear reduction at a fixed range, under two criteria: the
// paper's discarded-pixel count (which GHE provably minimizes) and the
// perceptual UQI distortion (where results depend on where the merge
// error lands spatially).
type AblationEqualizeRow struct {
	Range int
	// Merged-pixel percentages (the Section 3 criterion).
	MeanHEBSMerged, MeanLinearMerged float64
	// UQI distortion percentages.
	MeanHEBSUQI, MeanLinearUQI float64
	// AdvantageRatio is linear/HEBS merged-pixel ratio (>1: GHE wins).
	AdvantageRatio float64
}

// AblationEqualizeVsClip quantifies the paper's core claim: at the same
// dynamic range, histogram-aware merging discards fewer pixels than
// blind (linear) range reduction.
func AblationEqualizeVsClip(cfg Config, ranges []int) ([]AblationEqualizeRow, error) {
	if len(ranges) == 0 {
		return nil, errors.New("experiments: no ranges")
	}
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	var rows []AblationEqualizeRow
	for _, r := range ranges {
		row := AblationEqualizeRow{Range: r}
		for _, ni := range suite {
			res, err := core.Process(ni.Image, core.Options{
				DynamicRange: r,
				Metric:       cfg.Metric,
				Subsystem:    cfg.Subsystem,
			})
			if err != nil {
				return nil, err
			}
			linLUT, err := transform.ScaleToRange(0, uint8(r))
			if err != nil {
				return nil, err
			}
			hebsMerged, err := chart.MergedPixelPercent(ni.Image, res.Lambda)
			if err != nil {
				return nil, err
			}
			linMerged, err := chart.MergedPixelPercent(ni.Image, linLUT)
			if err != nil {
				return nil, err
			}
			linUQI, err := chart.RangeReductionDistortion(ni.Image, r, cfg.Metric)
			if err != nil {
				return nil, err
			}
			row.MeanHEBSMerged += hebsMerged
			row.MeanLinearMerged += linMerged
			row.MeanHEBSUQI += res.AchievedDistortion
			row.MeanLinearUQI += linUQI
		}
		n := float64(len(suite))
		row.MeanHEBSMerged /= n
		row.MeanLinearMerged /= n
		row.MeanHEBSUQI /= n
		row.MeanLinearUQI /= n
		if row.MeanHEBSMerged > 0 {
			row.AdvantageRatio = row.MeanLinearMerged / row.MeanHEBSMerged
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationEqualizerRow compares histogram-equalization variants at a
// fixed dynamic range.
type AblationEqualizerRow struct {
	Method string
	// MeanDistortion is the achieved UQI distortion percent.
	MeanDistortion float64
	// MeanMerged is the discarded-pixel percentage.
	MeanMerged float64
	// MeanBrightShift is |mean(compensated) − mean(original)| in 8-bit
	// levels — the brightness-preservation criterion BBHE targets.
	MeanBrightShift float64
}

// AblationEqualizers evaluates the paper's future-work item: plain GHE
// against contrast-limited and brightness-preserving equalization, all
// at the same dynamic range.
func AblationEqualizers(cfg Config, r int) ([]AblationEqualizerRow, error) {
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	methods := []core.Equalizer{core.EqualizerGHE, core.EqualizerClipped, core.EqualizerBBHE}
	var rows []AblationEqualizerRow
	for _, m := range methods {
		row := AblationEqualizerRow{Method: m.String()}
		for _, ni := range suite {
			res, err := core.Process(ni.Image, core.Options{
				DynamicRange: r,
				Equalizer:    m,
				Metric:       cfg.Metric,
				Subsystem:    cfg.Subsystem,
			})
			if err != nil {
				return nil, err
			}
			merged, err := chart.MergedPixelPercent(ni.Image, res.Lambda)
			if err != nil {
				return nil, err
			}
			comp, err := res.CompensatedPreview()
			if err != nil {
				return nil, err
			}
			var origMean, compMean float64
			for i := range ni.Image.Pix {
				origMean += float64(ni.Image.Pix[i])
				compMean += float64(comp.Pix[i])
			}
			n := float64(len(ni.Image.Pix))
			row.MeanDistortion += res.AchievedDistortion
			row.MeanMerged += merged
			row.MeanBrightShift += absF(compMean/n - origMean/n)
		}
		n := float64(len(suite))
		row.MeanDistortion /= n
		row.MeanMerged /= n
		row.MeanBrightShift /= n
		rows = append(rows, row)
	}
	return rows, nil
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// BusRow is one encoding's mean interface switching activity over the
// benchmark suite.
type BusRow struct {
	Encoding             string
	MeanTransPerWord     float64
	MeanSavingsVersusRaw float64
	ExtraWires           int
}

// BusEncodings evaluates the interface-power techniques of the
// introduction's first class (refs. [2]/[3]): bit transitions per
// transmitted pixel under each bus encoding, averaged over the suite.
func BusEncodings(cfg Config) ([]BusRow, error) {
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	type acc struct {
		trans, savings float64
		wires          int
	}
	accs := make([]acc, len(bus.Encodings))
	for _, ni := range suite {
		stats, err := bus.CompareImage(ni.Image)
		if err != nil {
			return nil, err
		}
		raw := stats[0]
		for i, st := range stats {
			accs[i].trans += st.TransitionsPerWord()
			accs[i].savings += st.SavingsVersus(raw)
			accs[i].wires = st.ExtraWires
		}
	}
	n := float64(len(suite))
	rows := make([]BusRow, len(bus.Encodings))
	for i, enc := range bus.Encodings {
		rows[i] = BusRow{
			Encoding:             enc.String(),
			MeanTransPerWord:     accs[i].trans / n,
			MeanSavingsVersusRaw: accs[i].savings / n,
			ExtraWires:           accs[i].wires,
		}
	}
	return rows, nil
}

// AblationLCRow reports hardware realization error for one cell model
// at one segment budget.
type AblationLCRow struct {
	Model    string
	Segments int
	MeanMSE  float64 // realized vs target Λ, squared levels
}

// AblationLCModels quantifies why the reference ladder needs multiple
// taps: realization error of the HEBS transform (at dynamic range r)
// under the idealized linear cell, a gamma-law cell and a sigmoid
// twisted-nematic cell, across segment budgets. Nonlinear cells bend
// the segment interiors, so their error falls with tap count where the
// linear cell is exact from the start.
func AblationLCModels(cfg Config, r int, budgets []int) ([]AblationLCRow, error) {
	if len(budgets) == 0 {
		return nil, errors.New("experiments: no segment budgets")
	}
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	gamma, err := driver.NewGammaLC(2.2)
	if err != nil {
		return nil, err
	}
	scurve, err := driver.NewSCurveLC(8)
	if err != nil {
		return nil, err
	}
	models := []driver.LCModel{driver.LinearLC{}, gamma, scurve}
	var rows []AblationLCRow
	for _, model := range models {
		for _, m := range budgets {
			row := AblationLCRow{Model: model.Name(), Segments: m}
			for _, ni := range suite {
				dcfg := driver.Config{Vdd: 3.3, Sources: m, DACBits: 0, LC: model}
				res, err := core.Process(ni.Image, core.Options{
					DynamicRange: r,
					Segments:     m,
					Driver:       &dcfg,
					Metric:       cfg.Metric,
					Subsystem:    cfg.Subsystem,
				})
				if err != nil {
					return nil, err
				}
				row.MeanMSE += res.RealizationError
			}
			row.MeanMSE /= float64(len(suite))
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderTable1 formats a Table1Result in the paper's layout.
func RenderTable1(res *Table1Result) *report.Table {
	header := []string{"Name"}
	for _, b := range res.Budgets {
		header = append(header, fmt.Sprintf("Distortion = %.0f%%", b))
	}
	tb := report.NewTable(header...)
	for _, row := range res.Rows {
		cells := []string{row.Name}
		for _, s := range row.Savings {
			cells = append(cells, report.F(s, 2))
		}
		tb.MustAddRow(cells...)
	}
	avg := []string{"Average"}
	for _, a := range res.Averages {
		avg = append(avg, report.F(a, 2))
	}
	tb.MustAddRow(avg...)
	return tb
}

// RenderCurve formats a characterization curve as a two-column table.
func RenderCurve(points []CurvePoint, xName, yName string) *report.Table {
	tb := report.NewTable(xName, yName)
	for _, p := range points {
		tb.MustAddRow(report.F(p.X, 4), report.F(p.Y, 4))
	}
	return tb
}
