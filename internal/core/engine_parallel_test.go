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
// kernel at 256² — sharded histogram accumulation, sharded Λ apply
// and the exact search's sharded probe remaps — and the direct-range
// path. It is the guard that the worker count is never a quality knob.
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
