// Command hebsbench regenerates the paper's evaluation artifacts —
// every table and figure of Section 5 plus the design ablations — as
// aligned text tables and optional CSV files.
//
// Usage:
//
//	hebsbench [-size N] [-csv DIR] [-dump DIR] [-only LIST]
//
// With no flags it runs everything at the default benchmark image size
// and prints to stdout. -only selects a comma-separated subset of:
// fig6a, fig6b, fig7, fig8, table1, compare, ablations, and the opt-in
// perf section (wall-clock/alloc measurements, excluded from the
// default run). -dump writes the Figure 8 original / transformed /
// compensated-preview images as PGM files (the quantitative
// counterpart of the paper's thumbnails).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/chart"
	"hebs/internal/core"
	"hebs/internal/driver"
	"hebs/internal/equalize"
	"hebs/internal/experiments"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/imageio"
	"hebs/internal/obs"
	"hebs/internal/plc"
	"hebs/internal/report"
	"hebs/internal/sipi"
	"hebs/internal/video"
)

// benchSchemaVersion identifies the -json layout. Bump it when a field
// changes meaning; cmd/hebsbenchcmp refuses to compare across versions.
const benchSchemaVersion = 1

// benchDoc is the -json output: every emitted table in machine-readable
// form plus the observability registry snapshot, so BENCH_*.json perf
// and quality trajectories can be tracked across PRs.
type benchDoc struct {
	SchemaVersion int          `json:"schema_version"`
	ImageSize     int          `json:"image_size"`
	Tables        []benchTable `json:"tables"`
	Perf          []perfRecord `json:"perf,omitempty"`
	Metrics       obs.Snapshot `json:"metrics"`
}

// perfRecord is one stable machine-readable benchmark measurement —
// the schema cmd/hebsbenchcmp consumes. Records are keyed by
// (name, workers); everything else is the measurement.
type perfRecord struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerClip   float64 `json:"mb_per_clip"`
}

// benchTable mirrors one report.Table.
type benchTable struct {
	Name    string     `json:"name"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hebsbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("hebsbench", flag.ContinueOnError)
	fs.SetOutput(out)
	size := fs.Int("size", 0, "benchmark image edge length (0 = default)")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	dumpDir := fs.String("dump", "", "write the Figure 8 image dumps (PGM) into this directory")
	only := fs.String("only", "", "comma-separated subset: fig6a,fig6b,fig7,fig8,table1,compare,ablations,backends,perf (perf is opt-in)")
	workers := fs.Int("workers", 0, "worker goroutines for the suite fan-outs and perf runs (0 = all CPUs, 1 = serial)")
	delta := fs.Bool("delta", false, "enable incremental delta analysis on the video/steady16 perf benchmark (video/static16 and video/talking16 always run with it)")
	jsonOut := fs.String("json", "", "write the emitted tables plus a metrics snapshot as JSON to this file")
	diag := obs.AddCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := diag.Start(); err != nil {
		return err
	}
	defer func() {
		if stopErr := diag.Stop(); stopErr != nil && err == nil {
			err = stopErr
		}
	}()

	// SIGINT cancels the suite fan-outs between images (a second signal
	// kills the process via the restored default handler).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := experiments.Config{ImageSize: *size, Workers: *workers}.WithContext(ctx)
	selected := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(s)] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	doc := benchDoc{SchemaVersion: benchSchemaVersion, ImageSize: *size}
	emit := func(name, title string, tb *report.Table) error {
		if err := report.Section(out, title); err != nil {
			return err
		}
		if err := tb.WriteText(out); err != nil {
			return err
		}
		if *jsonOut != "" {
			doc.Tables = append(doc.Tables, benchTable{
				Name:    name,
				Title:   title,
				Columns: tb.Columns(),
				Rows:    tb.Rows(),
			})
		}
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
			if err != nil {
				return err
			}
			if err := tb.WriteCSV(f); err != nil {
				_ = f.Close() // the write error takes precedence
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	}

	if want("fig6a") {
		pts, err := experiments.Figure6a(cfg, 21)
		if err != nil {
			return err
		}
		if err := emit("fig6a", "Figure 6a — CCFL driver power vs backlight factor (LP064V1)",
			experiments.RenderCurve(pts, "beta", "power_W")); err != nil {
			return err
		}
	}

	if want("fig6b") {
		pts, err := experiments.Figure6b(cfg, 21)
		if err != nil {
			return err
		}
		if err := emit("fig6b", "Figure 6b — TFT panel power vs pixel transmittance (Eq. 12)",
			experiments.RenderCurve(pts, "transmittance", "power_W")); err != nil {
			return err
		}
	}

	if want("fig7") {
		curve, err := experiments.Figure7(cfg)
		if err != nil {
			return err
		}
		cloud := report.NewTable("image", "range", "distortion_pct", "saving_pct")
		for _, s := range curve.Samples {
			cloud.MustAddRow(s.Name, report.I(s.Range),
				report.F(s.Distortion, 2), report.F(s.Saving, 2))
		}
		if err := emit("fig7_cloud", "Figure 7 — distortion vs dynamic range (point cloud)", cloud); err != nil {
			return err
		}
		fits := report.NewTable("range", "entire_dataset_fit", "worstcase_fit")
		for _, r := range curve.Ranges {
			fits.MustAddRow(report.I(r),
				report.F(curve.PredictedDistortion(r, false), 2),
				report.F(curve.PredictedDistortion(r, true), 2))
		}
		if err := emit("fig7_fits", "Figure 7 — fitted characteristic curves", fits); err != nil {
			return err
		}
	}

	if want("fig8") {
		rows, err := experiments.Figure8(cfg)
		if err != nil {
			return err
		}
		tb := report.NewTable("image", "dynamic_range", "distortion_pct", "power_saving_pct")
		for _, r := range rows {
			tb.MustAddRow(r.Name, report.I(r.Range),
				report.F(r.Distortion, 1), report.F(r.Saving, 2))
		}
		if err := emit("fig8", "Figure 8 — sample images at dynamic range 220 and 100", tb); err != nil {
			return err
		}
		if *dumpDir != "" {
			if err := dumpFigure8(cfg, *dumpDir); err != nil {
				return err
			}
			fmt.Fprintf(out, "\nwrote Figure 8 image dumps to %s\n", *dumpDir)
		}
	}

	if want("table1") {
		res, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		if err := emit("table1", "Table 1 — power saving for different distortion levels",
			experiments.RenderTable1(res)); err != nil {
			return err
		}
	}

	if want("compare") {
		rows, err := experiments.Comparison(cfg, 10)
		if err != nil {
			return err
		}
		tb := report.NewTable("method", "mean_saving_pct", "mean_beta")
		for _, r := range rows {
			tb.MustAddRow(r.Method, report.F(r.MeanSaving, 2), report.F(r.MeanBeta, 3))
		}
		if err := emit("compare", "Section 5.2 — HEBS vs DLS [4] and CBCS [5] at 10% distortion", tb); err != nil {
			return err
		}

		native, err := experiments.NativeVsPerceptual(cfg, 10)
		if err != nil {
			return err
		}
		tb = report.NewTable("method", "native_policy_saving_pct", "uqi_policy_saving_pct", "left_on_table_pts")
		for _, r := range native {
			tb.MustAddRow(r.Method, report.F(r.MeanNativeSaving, 2),
				report.F(r.MeanUQISaving, 2), report.F(r.OverestimatePct, 2))
		}
		if err := emit("compare_native", "Section 2 claim — pixel-count measures overestimate distortion", tb); err != nil {
			return err
		}
	}

	if want("ablations") {
		if err := runAblations(cfg, emit); err != nil {
			return err
		}
	}

	if want("backends") {
		if err := runBackends(cfg, emit); err != nil {
			return err
		}
	}

	// The perf section is opt-in (`-only perf`): testing.Benchmark runs
	// take seconds each and have no place in the default artifact run.
	if selected["perf"] {
		recs, err := runPerf(ctx, *workers, *delta)
		if err != nil {
			return err
		}
		tb := report.NewTable("name", "workers", "gomaxprocs", "ns_per_op", "allocs_per_op", "mb_per_clip")
		for _, r := range recs {
			tb.MustAddRow(r.Name, report.I(r.Workers), report.I(r.GOMAXPROCS),
				report.F(r.NsPerOp, 0), report.I(int(r.AllocsPerOp)), report.F(r.MBPerClip, 4))
		}
		if err := report.Section(out, "Perf — pipeline wall-clock and allocations (stable schema)"); err != nil {
			return err
		}
		if err := tb.WriteText(out); err != nil {
			return err
		}
		doc.Perf = recs
	}

	if *jsonOut != "" {
		// Snapshot last so the metrics cover the runs above.
		doc.Metrics = obs.Default().Snapshot()
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			_ = f.Close() // the encode error takes precedence
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote JSON summary to %s\n", *jsonOut)
	}

	fmt.Fprintln(out)
	return nil
}

// runAblations emits the DESIGN.md §5 ablation tables.
func runAblations(cfg experiments.Config, emit func(name, title string, tb *report.Table) error) error {
	plcRows, err := experiments.AblationPLCSegments(cfg, 150, []int{2, 4, 8, 16, 32})
	if err != nil {
		return err
	}
	tb := report.NewTable("segments_m", "mean_plc_mse", "mean_achieved_distortion_pct")
	for _, r := range plcRows {
		tb.MustAddRow(report.I(r.Segments), report.F(r.MeanPLCError, 3), report.F(r.MeanAchieved, 2))
	}
	if err := emit("ablation_plc", "Ablation — PLC segment budget at R=150", tb); err != nil {
		return err
	}

	metricRows, err := experiments.AblationMetrics(cfg, 10)
	if err != nil {
		return err
	}
	tb = report.NewTable("metric", "mean_admissible_range", "mean_saving_pct")
	for _, r := range metricRows {
		tb.MustAddRow(r.Metric, report.F(r.MeanRange, 1), report.F(r.MeanSaving, 2))
	}
	if err := emit("ablation_metric", "Ablation — distortion metric (UQI vs SSIM) at 10% budget", tb); err != nil {
		return err
	}

	eqRows, err := experiments.AblationEqualizeVsClip(cfg, []int{80, 120, 160, 200})
	if err != nil {
		return err
	}
	tb = report.NewTable("range", "hebs_merged_pct", "linear_merged_pct",
		"hebs_uqi_pct", "linear_uqi_pct", "merged_advantage")
	for _, r := range eqRows {
		tb.MustAddRow(report.I(r.Range),
			report.F(r.MeanHEBSMerged, 2), report.F(r.MeanLinearMerged, 2),
			report.F(r.MeanHEBSUQI, 2), report.F(r.MeanLinearUQI, 2),
			report.F(r.AdvantageRatio, 2))
	}
	if err := emit("ablation_equalize", "Ablation — GHE merging vs linear range reduction", tb); err != nil {
		return err
	}

	eqVar, err := experiments.AblationEqualizers(cfg, 140)
	if err != nil {
		return err
	}
	tb = report.NewTable("method", "mean_distortion_pct", "mean_merged_pct", "mean_brightness_shift")
	for _, r := range eqVar {
		tb.MustAddRow(r.Method, report.F(r.MeanDistortion, 2),
			report.F(r.MeanMerged, 2), report.F(r.MeanBrightShift, 2))
	}
	if err := emit("ablation_equalizers", "Ablation — equalization variants at R=140 (future work)", tb); err != nil {
		return err
	}

	busRows, err := experiments.BusEncodings(cfg)
	if err != nil {
		return err
	}
	tb = report.NewTable("encoding", "transitions_per_word", "saving_vs_raw_pct", "extra_wires")
	for _, r := range busRows {
		tb.MustAddRow(r.Encoding, report.F(r.MeanTransPerWord, 3),
			report.F(r.MeanSavingsVersusRaw, 1), report.I(r.ExtraWires))
	}
	if err := emit("bus_encodings", "Interface power — bus encodings of refs [2]/[3]", tb); err != nil {
		return err
	}

	lcRows, err := experiments.AblationLCModels(cfg, 150, []int{2, 4, 10, 24})
	if err != nil {
		return err
	}
	tb = report.NewTable("cell_model", "segments_m", "mean_realization_mse")
	for _, r := range lcRows {
		tb.MustAddRow(r.Model, report.I(r.Segments), report.F(r.MeanMSE, 4))
	}
	return emit("ablation_lc", "Ablation — LC cell nonlinearity vs ladder tap count at R=150", tb)
}

// runBackends emits the zoned-architecture tables: the per-backend
// power characterization (the Figure 6a counterpart across shipped
// backends) and the backend frontier (suite-mean operating points per
// backend per distortion budget, through the zoned engine path).
func runBackends(cfg experiments.Config, emit func(name, title string, tb *report.Table) error) error {
	backends, err := experiments.DefaultBackends()
	if err != nil {
		return err
	}
	curves := report.NewTable("backend", "beta", "power_W")
	for _, b := range backends {
		pts, err := chart.BackendPowerCurve(b, 11)
		if err != nil {
			return err
		}
		for _, p := range pts {
			curves.MustAddRow(b.Name(), report.F(p.Beta, 4), report.F(p.Power, 4))
		}
	}
	if err := emit("backend_power", "Backends — total power vs drive level at uniform mid-gray", curves); err != nil {
		return err
	}

	rows, err := experiments.BackendFrontier(cfg, backends, []float64{2, 5, 10})
	if err != nil {
		return err
	}
	return emit("backend_frontier", "Backends — suite-mean operating points per distortion budget",
		experiments.RenderBackendTable(rows))
}

// perfWorkerSet resolves the -workers flag into the distinct worker
// counts to measure: always the serial baseline, plus the parallel
// count when it differs.
func perfWorkerSet(workers int) []int {
	resolved := workers
	if resolved <= 0 {
		resolved = runtime.GOMAXPROCS(0)
	}
	if resolved <= 1 {
		return []int{1}
	}
	return []int{1, resolved}
}

// runPerf measures the headline paths — the 16-frame steady-state clip
// through the video scheduler (with and without incremental delta
// analysis), a mostly-static "talking head" clip exercising the partial
// re-bin path, the zoned walk on steady and mostly-static clips (the
// per-zone fast path's full-replay and unchanged-zone-skip regimes),
// the single-image exact range search, and one uncached PLC solve (the
// Eq. 9 DP on a 256-point GHE curve at the driver's segment budget;
// the clip records above reach PLC only through the plan cache) — at
// each worker count, via testing.Benchmark so iteration counts
// self-calibrate. The records are the stable schema consumed by
// cmd/hebsbenchcmp and checked into BENCH_pipeline.json; mb_per_clip
// is the heap allocated per operation (one clip / one image) in MB.
func runPerf(ctx context.Context, workers int, delta bool) ([]perfRecord, error) {
	frame, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		return nil, err
	}
	frames := make([]*gray.Image, 16)
	for i := range frames {
		frames[i] = frame
	}
	seq, err := video.NewSequence(frames)
	if err != nil {
		return nil, err
	}
	talkSeq, err := talkingClip(128, 16)
	if err != nil {
		return nil, err
	}
	still, err := sipi.Generate("west", 256, 256)
	if err != nil {
		return nil, err
	}
	ghe, err := equalize.SolveRange(histogram.Of(still), 150)
	if err != nil {
		return nil, err
	}
	ghePts := ghe.Points()

	var recs []perfRecord
	record := func(name string, w int, op func() error) error {
		// Warm the pools and caches outside the measurement.
		if err := op(); err != nil {
			return err
		}
		var benchErr error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchErr != nil {
					return
				}
				if err := op(); err != nil {
					benchErr = err
					return
				}
			}
		})
		if benchErr != nil {
			return benchErr
		}
		recs = append(recs, perfRecord{
			Name:        name,
			Workers:     w,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			MBPerClip:   float64(br.AllocedBytesPerOp()) / 1e6,
		})
		return nil
	}

	for _, w := range perfWorkerSet(workers) {
		eng := core.NewEngine(core.EngineOptions{Workers: w})
		pol := video.Policy{
			MaxStep:        0.04,
			ReuseThreshold: 4,
			DeltaAnalysis:  delta,
			Workers:        w,
			Engine:         eng,
			Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
		}
		if err := record("video/steady16", w, func() error {
			_, err := video.ProcessContext(ctx, seq, pol)
			return err
		}); err != nil {
			return nil, err
		}
		// The delta benchmarks: the same steady clip on the incremental
		// path (every frame fuses — the ceiling), and a talking-head clip
		// where a small patch changes per frame (the partial re-bin path).
		dpol := pol
		dpol.DeltaAnalysis = true
		if err := record("video/static16", w, func() error {
			_, err := video.ProcessContext(ctx, seq, dpol)
			return err
		}); err != nil {
			return nil, err
		}
		if err := record("video/talking16", w, func() error {
			_, err := video.ProcessContext(ctx, talkSeq, dpol)
			return err
		}); err != nil {
			return nil, err
		}
		// The zoned walk: the same steady clip through a 4×4 LED array,
		// so the per-zone fan-out and plan-LRU behavior are tracked next
		// to the classic single-β number.
		led, err := backlight.NewLED(backlight.LEDOptions{Rows: 4, Cols: 4})
		if err != nil {
			return nil, err
		}
		zpol := pol
		zpol.ReuseThreshold = 0
		zpol.DeltaAnalysis = false
		zpol.Backend = led
		if err := record("video/zoned16", w, func() error {
			_, err := video.ProcessContext(ctx, seq, zpol)
			return err
		}); err != nil {
			return nil, err
		}
		// The zoned fast path's unchanged-zone win: the talking-head
		// clip through the same 4×4 array. The animated mouth patch
		// keeps core's whole-frame replay from ever firing, so what this
		// record tracks is the per-zone skip — the untouched zones
		// replay their certified programs every frame while only the
		// patch's zones re-analyze.
		if err := record("video/zonedstatic16", w, func() error {
			_, err := video.ProcessContext(ctx, talkSeq, zpol)
			return err
		}); err != nil {
			return nil, err
		}
		opts := core.Options{MaxDistortionPercent: 10, ExactSearch: true}
		if err := record("image/exact256", w, func() error {
			res, err := eng.Process(ctx, still, opts)
			if err != nil {
				return err
			}
			res.Release()
			return nil
		}); err != nil {
			return nil, err
		}
		if err := record("plc/ghe256", w, func() error {
			_, err := plc.CoarsenCtx(ctx, nil, ghePts, driver.DefaultConfig.Sources)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// talkingClip builds the deterministic "talking head" benchmark clip: a
// portrait base frame with a small animated mouth patch, so most tiles
// are byte-identical frame to frame and only the patch's tiles
// re-bin. Pure function of (size, frames) — same determinism contract
// as the sipi generators.
func talkingClip(size, count int) (*video.Sequence, error) {
	base, err := sipi.Generate("girl", size, size)
	if err != nil {
		return nil, err
	}
	frames := make([]*gray.Image, count)
	pw, ph := size/6, size/10 // patch dimensions
	x0, y0 := (size-pw)/2, size*2/3
	for i := range frames {
		f := gray.New(size, size)
		copy(f.Pix, base.Pix)
		for y := y0; y < y0+ph && y < size; y++ {
			for x := x0; x < x0+pw && x < size; x++ {
				// A moving diagonal ramp: varies per frame, stays in a
				// mid-gray band so the histogram shifts slightly.
				f.Pix[y*size+x] = uint8(96 + (x-x0+y-y0+7*i)%64)
			}
		}
		frames[i] = f
	}
	return video.NewSequence(frames)
}

// dumpFigure8 writes the original / transformed / compensated preview
// for each Figure 8 image at both dynamic ranges.
func dumpFigure8(cfg experiments.Config, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	size := cfg.ImageSize
	if size <= 0 {
		size = sipi.DefaultSize
	}
	for _, name := range experiments.Figure8Images {
		img, err := sipi.Generate(name, size, size)
		if err != nil {
			return err
		}
		if err := imageio.Save(filepath.Join(dir, name+"_original.pgm"), img); err != nil {
			return err
		}
		for _, r := range []int{220, 100} {
			res, err := core.Process(img, core.Options{DynamicRange: r})
			if err != nil {
				return err
			}
			base := fmt.Sprintf("%s_r%d", name, r)
			if err := imageio.Save(filepath.Join(dir, base+"_transformed.pgm"), res.Transformed); err != nil {
				return err
			}
			prev, err := res.CompensatedPreview()
			if err != nil {
				return err
			}
			if err := imageio.Save(filepath.Join(dir, base+"_preview.pgm"), prev); err != nil {
				return err
			}
		}
	}
	return nil
}
