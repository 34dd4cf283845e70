package core

import (
	"context"
	"reflect"
	"testing"

	"hebs/internal/rgb"
	"hebs/internal/sipi"
)

// TestEngineParallelProcessEqualsSerial: a workers>1 engine produces
// byte-identical output (frame, plan, measurements) to a serial one,
// across the suite and option shapes that exercise every parallel
// kernel — sharded histogram/apply via large frames, the speculative
// exact search, and the direct-range path.
func TestEngineParallelProcessEqualsSerial(t *testing.T) {
	ctx := context.Background()
	suite, err := sipi.Suite(256, 256)
	if err != nil {
		t.Fatal(err)
	}
	optsList := []Options{
		{MaxDistortionPercent: 10, ExactSearch: true},
		{MaxDistortionPercent: 3, ExactSearch: true},
		{DynamicRange: 180},
	}
	serial := NewEngine(EngineOptions{PlanCacheSize: -1})
	for _, workers := range []int{2, 3, 8} {
		par := NewEngine(EngineOptions{PlanCacheSize: -1, Workers: workers})
		for _, ni := range suite {
			for _, opts := range optsList {
				want, err := serial.Process(ctx, ni.Image, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := par.Process(ctx, ni.Image, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Transformed.Equal(want.Transformed) {
					t.Fatalf("%s workers=%d %+v: transformed frame differs", ni.Name, workers, opts)
				}
				if got.Range != want.Range || got.Beta != want.Beta || //hebslint:allow floateq
					got.PredictedDistortion != want.PredictedDistortion || //hebslint:allow floateq
					got.AchievedDistortion != want.AchievedDistortion { //hebslint:allow floateq
					t.Fatalf("%s workers=%d %+v: measurements differ: R %d/%d β %v/%v",
						ni.Name, workers, opts, got.Range, want.Range, got.Beta, want.Beta)
				}
				if !reflect.DeepEqual(got.Program, want.Program) {
					t.Fatalf("%s workers=%d %+v: driver program differs", ni.Name, workers, opts)
				}
				got.Release()
				want.Release()
			}
		}
		if inUse := par.PoolStats().InUse(); inUse != 0 {
			t.Fatalf("workers=%d: pool leak: %d buffers in use", workers, inUse)
		}
	}
}

// TestEngineParallelColorEqualsSerial: the sharded RGB apply path.
func TestEngineParallelColorEqualsSerial(t *testing.T) {
	ctx := context.Background()
	base, err := sipi.Generate("peppers", 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	img := rgb.FromGray(base)
	opts := Options{MaxDistortionPercent: 10, ExactSearch: true}
	serial := NewEngine(EngineOptions{PlanCacheSize: -1})
	par := NewEngine(EngineOptions{PlanCacheSize: -1, Workers: 4})
	want, err := serial.ProcessColor(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.ProcessColor(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.TransformedColor.Equal(want.TransformedColor) {
		t.Fatal("parallel color frame differs from serial")
	}
	got.Release()
	want.Release()
	if inUse := par.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak: %d buffers in use", inUse)
	}
}

// TestSpecDepth: the speculation depth is the largest d with
// 2^d − 1 <= workers, at least 1, at most the 8 levels bisection over
// 254 candidates can ever take.
func TestSpecDepth(t *testing.T) {
	cases := []struct{ workers, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {6, 2}, {7, 3}, {8, 3},
		{15, 4}, {16, 4}, {255, 8}, {100000, 8},
	}
	for _, c := range cases {
		if got := specDepth(c.workers); got != c.want {
			t.Errorf("specDepth(%d) = %d, want %d", c.workers, got, c.want)
		}
	}
}

// TestMinRangeExactSpecMatchesSerial drives the speculative search
// directly against the serial bisection over a sweep of budgets, on a
// frame above the size gate.
func TestMinRangeExactSpecMatchesSerial(t *testing.T) {
	ctx := context.Background()
	img, err := sipi.Generate("west", 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewEngine(EngineOptions{})
	for _, workers := range []int{2, 3, 7, 16} {
		par := NewEngine(EngineOptions{Workers: workers})
		for _, budget := range []float64{0.5, 2, 5, 10, 20, 50, 99} {
			wantR, wantD, err := serial.minRangeExact(ctx, img, budget, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotR, gotD, err := par.minRangeExactSpec(ctx, img, budget, nil)
			if err != nil {
				t.Fatal(err)
			}
			if gotR != wantR || gotD != wantD { //hebslint:allow floateq
				t.Fatalf("workers=%d budget=%v: spec (R=%d d=%v) != serial (R=%d d=%v)",
					workers, budget, gotR, gotD, wantR, wantD)
			}
		}
		if inUse := par.PoolStats().InUse(); inUse != 0 {
			t.Fatalf("workers=%d: search leaked %d scratch buffers", workers, inUse)
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
