package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/chart"
	"hebs/internal/driver"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/quality"
	"hebs/internal/rgb"
	"hebs/internal/sipi"
)

// TestEngineProcessMatchesLegacy: the pooled engine path must be
// byte-identical to the legacy wrapper across operating modes.
func TestEngineProcessMatchesLegacy(t *testing.T) {
	cfg := driver.DefaultConfig
	cases := []struct {
		name string
		opts Options
	}{
		{"direct_range", Options{DynamicRange: 150}},
		{"exact_search", Options{MaxDistortionPercent: 10, ExactSearch: true}},
		{"with_driver", Options{DynamicRange: 120, Driver: &cfg}},
		{"clipped", Options{DynamicRange: 140, Equalizer: EqualizerClipped}},
	}
	eng := NewEngine(EngineOptions{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := testImg(t, "lena")
			want, err := Process(img, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the second run exercises the plan cache and the
			// warmed buffer pools.
			for run := 0; run < 2; run++ {
				got, err := eng.Process(context.Background(), img, tc.opts)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if !got.Transformed.Equal(want.Transformed) {
					t.Fatalf("run %d: transformed image differs from legacy Process", run)
				}
				if *got.Lambda != *want.Lambda {
					t.Fatalf("run %d: Λ differs from legacy Process", run)
				}
				if got.Range != want.Range || got.Beta != want.Beta {
					t.Fatalf("run %d: operating point (%d, %v) != legacy (%d, %v)",
						run, got.Range, got.Beta, want.Range, want.Beta)
				}
				for _, q := range [][2]float64{
					{got.AchievedDistortion, want.AchievedDistortion},
					{got.PredictedDistortion, want.PredictedDistortion},
					{got.PowerBefore, want.PowerBefore},
					{got.PowerAfter, want.PowerAfter},
					{got.PowerSavingPercent, want.PowerSavingPercent},
					{got.PLCError, want.PLCError},
					{got.RealizationError, want.RealizationError},
				} {
					if math.Float64bits(q[0]) != math.Float64bits(q[1]) {
						t.Fatalf("run %d: metric %v != legacy %v", run, q[0], q[1])
					}
				}
				got.Release()
			}
		})
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak: %d buffers still in use after releases", inUse)
	}
}

func TestConflictingOptionsRejected(t *testing.T) {
	img := testImg(t, "lena")
	opts := Options{DynamicRange: 150, ExactSearch: true}
	var conflict *ConflictingOptionsError
	if _, err := Process(img, opts); !errors.As(err, &conflict) {
		t.Fatalf("Process: got %v, want ConflictingOptionsError", err)
	}
	if conflict.DynamicRange != 150 {
		t.Fatalf("conflict range = %d, want 150", conflict.DynamicRange)
	}
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	if _, err := eng.Process(ctx, img, opts); !errors.As(err, &conflict) {
		t.Fatalf("Engine.Process: got %v, want ConflictingOptionsError", err)
	}
}

// TestNaNBudgetRejected: a NaN distortion budget fails every
// comparison, so without the check it slipped past "budget > 0" and
// picked an arbitrary range (R=255 with ExactSearch, the curve's
// smallest range without). Every engine entry point must reject it.
func TestNaNBudgetRejected(t *testing.T) {
	img := testImg(t, "lena")
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, exact := range []bool{false, true} {
		opts := Options{MaxDistortionPercent: math.NaN(), ExactSearch: exact}
		if res, err := eng.Process(ctx, img, opts); err == nil {
			t.Errorf("exact=%v: Process accepted a NaN budget (R=%d)", exact, res.Range)
		}
		if r, _, err := eng.SelectRange(ctx, img, opts); err == nil {
			t.Errorf("exact=%v: SelectRange accepted a NaN budget (R=%d)", exact, r)
		}
		if _, err := eng.ProcessZoned(ctx, img, opts, led, nil); err == nil {
			t.Errorf("exact=%v: ProcessZoned accepted a NaN budget", exact)
		}
	}
}

// TestEngineStagesComposeLikeProcess: Process's internal stages —
// range selection, histogram, plan, apply — run one by one must
// reproduce Process's transformed frame, and the pooled buffers must
// drain.
func TestEngineStagesComposeLikeProcess(t *testing.T) {
	img := testImg(t, "baboon")
	opts := Options{DynamicRange: 150}
	want, err := Process(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	r, _, err := selectRange(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r != want.Range {
		t.Fatalf("selectRange range %d != Process range %d", r, want.Range)
	}
	plan, _, err := eng.planFor(ctx, nil, histogram.Of(img), r, resolveSegments(opts.Segments), opts.Driver, opts.Equalizer)
	if err != nil {
		t.Fatal(err)
	}
	if *plan.Lambda != *want.Lambda {
		t.Fatal("planFor Λ differs from Process")
	}
	out := gray.New(img.W, img.H)
	if err := plan.Lambda.ApplyInto(img, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(want.Transformed) {
		t.Fatal("applied frame differs from Process transformed frame")
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak: %d buffers still in use", inUse)
	}
}

// TestEnginePlanCacheSharesPlans: a repeated frame at the same
// operating point must be served the same cached plan (Result.PlanCached,
// and the very same Λ), a different operating point must not share it,
// and an engine with caching off must solve afresh every time.
func TestEnginePlanCacheSharesPlans(t *testing.T) {
	img := testImg(t, "lena")
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	run := func(e *Engine, r int) *Result {
		t.Helper()
		res, err := e.Process(ctx, img, Options{DynamicRange: r})
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		return res
	}
	p1 := run(eng, 150)
	p2 := run(eng, 150)
	if !p2.PlanCached || p1.Lambda != p2.Lambda {
		t.Fatal("same frame and range: plan not served from cache")
	}
	if p3 := run(eng, 120); p3.Lambda == p1.Lambda {
		t.Fatal("different range must not share the cached plan")
	}
	// Cache disabled: always a fresh plan.
	nocache := NewEngine(EngineOptions{PlanCacheSize: -1})
	q1 := run(nocache, 150)
	q2 := run(nocache, 150)
	if q1.PlanCached || q2.PlanCached || q1.Lambda == q2.Lambda {
		t.Fatal("disabled cache returned a shared plan")
	}
	if *q1.Lambda != *p1.Lambda {
		t.Fatal("cached and uncached plans disagree on Λ")
	}
}

func TestEngineProcessCancelledContext(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	img := testImg(t, "lena")
	if _, err := eng.Process(ctx, img, Options{DynamicRange: 150}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak on cancelled run: %d buffers in use", inUse)
	}
}

// TestEngineProcessCancellationMidway cancels the context from inside
// the distortion metric, after the transformed frame has been drawn
// from the pool: Process must surface context.Canceled and hand every
// pooled buffer back.
func TestEngineProcessCancellationMidway(t *testing.T) {
	eng := NewEngine(EngineOptions{PlanCacheSize: -1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancellingMetric := func(a *gray.Image, g quality.Recon) (float64, error) {
		cancel()
		// Surface the cancellation from inside the pipeline.
		return 0, ctx.Err()
	}
	opts := Options{DynamicRange: 150, Metric: cancellingMetric}
	res, err := eng.Process(ctx, testImg(t, "lena"), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run must not return a result")
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak after mid-run cancellation: %d buffers in use", inUse)
	}
}

// TestPoolTraffic pins how many pooled buffers a warm frame draws: an
// ExactSearch Process takes the histogram and the transformed frame,
// and a ProcessZoned that replays nothing takes its transformed frame
// alone. The distortion metric reads the reconstruction tables, so no
// search probe or measurement takes a frame.
func TestPoolTraffic(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	gets := func(run func() error) int64 {
		t.Helper()
		before := eng.PoolStats().Gets
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return eng.PoolStats().Gets - before
	}
	opts := Options{MaxDistortionPercent: 10, ExactSearch: true}
	process := func(name string) func() error {
		return func() error {
			res, err := eng.Process(ctx, testImg(t, name), opts)
			res.Release()
			return err
		}
	}
	gets(process("lena"))
	if n := gets(process("lena")); n != 2 {
		t.Errorf("warm ExactSearch Process drew %d pooled buffers, want 2", n)
	}
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	zoned := func(name string) func() error {
		return func() error {
			res, err := eng.ProcessZoned(ctx, testImg(t, name), opts, led, nil)
			res.Release()
			return err
		}
	}
	gets(zoned("lena"))
	// Every zone of baboon differs from lena's, so nothing replays.
	if n := gets(zoned("baboon")); n != 1 {
		t.Errorf("non-replay ProcessZoned drew %d pooled buffers, want 1", n)
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Errorf("%d pooled buffers still in use", inUse)
	}
}

func TestResultReleaseIdempotent(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	res, err := eng.Process(context.Background(), testImg(t, "lena"), Options{DynamicRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	res.Release() // second release is a no-op
	var nilRes *Result
	nilRes.Release() // nil-safe
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("double release corrupted pool accounting: InUse %d", inUse)
	}
}

func TestEngineProcessColorRelease(t *testing.T) {
	img := rgb.FromGray(testImg(t, "peppers"))
	eng := NewEngine(EngineOptions{})
	res, err := eng.ProcessColor(context.Background(), img, Options{DynamicRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := ProcessColor(img, Options{DynamicRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TransformedColor.Equal(legacy.TransformedColor) {
		t.Fatal("engine color output differs from legacy ProcessColor")
	}
	res.Release()
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak after color release: %d buffers in use", inUse)
	}
}

// TestMinRangeExactMeasuresEachRangeOnce: the exact search measures no
// range twice — the predicted distortion is the last passing probe's,
// not a re-measurement — and still agrees with the chart oracle's
// range and with a fresh measurement at that range. The oracle replays
// the bisection: its probes are distinct ranges, and only a search
// that ends on the never-probed full range 255 measures one more. A
// zero budget exercises that path on an image whose reductions all
// lose a level.
func TestMinRangeExactMeasuresEachRangeOnce(t *testing.T) {
	for _, fx := range []string{"lena", "baboon"} {
		img := testImg(t, fx)
		for _, budget := range []float64{0, 5, 10, 20} {
			calls := 0
			metric := func(a *gray.Image, g quality.Recon) (float64, error) {
				calls++
				return quality.UQIMetric(a, g)
			}
			r, predicted, err := minRangeExact(img, budget, metric)
			if err != nil {
				t.Fatal(err)
			}
			ranges := 0
			lo, hi := 2, 255
			for lo < hi {
				mid := (lo + hi) / 2
				ranges++
				d, err := chart.RangeReductionDistortion(img, mid, quality.UQIMetric)
				if err != nil {
					t.Fatal(err)
				}
				if d <= budget {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			if lo == 255 {
				ranges++
			}
			if calls != ranges {
				t.Errorf("%s budget %v: %d measurements of %d distinct ranges", fx, budget, calls, ranges)
			}
			fresh, err := chart.RangeReductionDistortion(img, r, quality.UQIMetric)
			if err != nil {
				t.Fatal(err)
			}
			//hebslint:allow floateq the kept probe value is the measurement, bit for bit
			if r != lo || predicted != fresh {
				t.Errorf("%s budget %v: (R=%d, D=%v), want the oracle's R=%d and D=%v", fx, budget, r, predicted, lo, fresh)
			}
		}
	}
}

// TestMinRangeExactMatchesChart: on every suite image and budget the
// engine's search returns chart.MinRangeExact's range — a local
// crossing, which TestMinRangeExact in chart pins — and a predicted
// distortion bit-identical to a fresh measurement at that range.
func TestMinRangeExactMatchesChart(t *testing.T) {
	suite, err := sipi.Suite(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range suite {
		for _, budget := range []float64{5, 10, 20} {
			r, predicted, err := minRangeExact(ni.Image, budget, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := chart.MinRangeExact(ni.Image, budget, nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := chart.RangeReductionDistortion(ni.Image, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r != want || math.Float64bits(predicted) != math.Float64bits(fresh) {
				t.Errorf("%s budget %v: (R=%d, D=%v), want chart's R=%d and D(R)=%v", ni.Name, budget, r, predicted, want, fresh)
			}
		}
	}
}

// TestEngineSelectRange: the public step-1 entry point agrees with a
// full Process at the same options and rejects invalid inputs.
func TestEngineSelectRange(t *testing.T) {
	ctx := context.Background()
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	opts := Options{MaxDistortionPercent: 10, ExactSearch: true}
	r, predicted, err := eng.SelectRange(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Process(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if r != res.Range || predicted != res.PredictedDistortion { //hebslint:allow floateq
		t.Fatalf("SelectRange (R=%d d=%v) disagrees with Process (R=%d d=%v)",
			r, predicted, res.Range, res.PredictedDistortion)
	}
	if _, _, err := eng.SelectRange(ctx, nil, opts); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, _, err := eng.SelectRange(ctx, img, Options{DynamicRange: 100, ExactSearch: true}); err == nil {
		t.Fatal("conflicting options accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := eng.SelectRange(cancelled, img, opts); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
