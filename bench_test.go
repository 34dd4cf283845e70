// Benchmarks regenerating each of the paper's evaluation artifacts
// (one per table/figure, per DESIGN.md's experiment index) plus the
// ablations and the hot algorithm kernels. The artifact benchmarks run
// the same code path as cmd/hebsbench at a reduced image size so that
// `go test -bench=.` finishes in minutes; the reported per-op time is
// the cost of regenerating the whole artifact.
package hebs

import (
	"testing"

	"hebs/internal/chart"
	"hebs/internal/core"
	"hebs/internal/equalize"
	"hebs/internal/experiments"
	"hebs/internal/histogram"
	"hebs/internal/obs"
	"hebs/internal/plc"
	"hebs/internal/quality"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// benchCfg trims the suite size for the artifact-level benchmarks.
var benchCfg = experiments.Config{ImageSize: 64}

func BenchmarkFigure6aCCFLCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6a(benchCfg, 101); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6bTFTCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6b(benchCfg, 101); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7DistortionCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Samples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1PowerSaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Comparison(benchCfg, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNativeVsPerceptual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NativeVsPerceptual(benchCfg, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPLCSegments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPLCSegments(benchCfg, 150, []int{2, 8, 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDistortionMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMetrics(benchCfg, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEqualizeVsClip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEqualizeVsClip(benchCfg, []int{100, 200}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEqualizerVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEqualizers(benchCfg, 140); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBusEncodings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BusEncodings(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Kernel benchmarks: the per-frame costs a runtime would pay. ---

func benchImage(b *testing.B, size int) *histogram.Histogram {
	b.Helper()
	img, err := sipi.Generate("lena", size, size)
	if err != nil {
		b.Fatal(err)
	}
	return histogram.Of(img)
}

func BenchmarkKernelGHESolve(b *testing.B) {
	h := benchImage(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := equalize.SolveRange(h, 150); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelPLCCoarsen(b *testing.B) {
	h := benchImage(b, 128)
	ghe, err := equalize.SolveRange(h, 150)
	if err != nil {
		b.Fatal(err)
	}
	pts := ghe.Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plc.Coarsen(pts, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelUQI(b *testing.B) {
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	other := img.Clone()
	for i, v := range other.Pix {
		other.Pix[i] = v / 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quality.UQI(img, other, quality.UQIOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelLUTApply(b *testing.B) {
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	lut, err := transform.ScaleToRange(0, 150)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lut.Apply(img)
	}
}

func BenchmarkKernelFullPipelineDirectRange(b *testing.B) {
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Process(img, core.Options{DynamicRange: 150}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFullPipelineTraced is the tracing counterpart of
// BenchmarkKernelFullPipelineDirectRange: same pipeline with a live
// collector sink, so the delta between the two is the full cost of
// span collection. The nil-sink (disabled) path is separately held to
// near-zero by TestNilSinkOverheadGuard in internal/obs.
func BenchmarkKernelFullPipelineTraced(b *testing.B) {
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	col := obs.NewCollector()
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Process(img, core.Options{DynamicRange: 150}); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			col.Reset() // bound collector memory over long runs
		}
	}
}

func BenchmarkKernelRangeReductionDistortion(b *testing.B) {
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chart.RangeReductionDistortion(img, 120, nil); err != nil {
			b.Fatal(err)
		}
	}
}
