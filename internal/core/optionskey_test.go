package core

import (
	"context"
	"reflect"
	"testing"

	"hebs/internal/driver"
	"hebs/internal/power"
)

// keyExempt lists the Options fields KeyFor deliberately leaves out of
// the fingerprint (see the OptionsKey doc): Trace is observability.
var keyExempt = map[string]bool{"Trace": true}

// nonZeroValue returns a non-zero value of type t, or false when the
// test does not know how to build one for that kind.
func nonZeroValue(t reflect.Type) (reflect.Value, bool) {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(t, func(args []reflect.Value) []reflect.Value {
			out := make([]reflect.Value, t.NumOut())
			for i := range out {
				out[i] = reflect.Zero(t.Out(i))
			}
			return out
		}))
	default:
		return v, false
	}
	return v, true
}

// TestKeyForCoversEveryOption: setting any core.Options field to a
// non-zero value either moves KeyFor's key or makes it refuse (ok =
// false), except for the explicitly exempt fields. A new
// output-affecting option that is not keyed fails here instead of
// letting a memo certify a stale result.
func TestKeyForCoversEveryOption(t *testing.T) {
	base, ok := KeyFor(Options{})
	if !ok {
		t.Fatal("zero Options not fingerprintable")
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if keyExempt[f.Name] {
			continue
		}
		val, known := nonZeroValue(f.Type)
		if !known {
			t.Errorf("Options.%s: no non-zero test value for kind %v; extend nonZeroValue or keyExempt", f.Name, f.Type.Kind())
			continue
		}
		var opts Options
		reflect.ValueOf(&opts).Elem().Field(i).Set(val)
		if key, ok := KeyFor(opts); ok && key == base {
			t.Errorf("Options.%s = %v leaves the key unchanged", f.Name, val)
		}
	}
}

// TestKeyForComparesPointeesByValue: Subsystem and Driver are keyed by
// the values they point to — equal values behind different pointers
// share a key, and mutating the pointee moves it.
func TestKeyForComparesPointeesByValue(t *testing.T) {
	sub, cfg := power.DefaultSubsystem, driver.DefaultConfig
	opts := Options{DynamicRange: 150, Subsystem: &sub, Driver: &cfg}
	before, ok := KeyFor(opts)
	if !ok {
		t.Fatal("options not fingerprintable")
	}
	sub2, cfg2 := sub, cfg
	if k, _ := KeyFor(Options{DynamicRange: 150, Subsystem: &sub2, Driver: &cfg2}); k != before {
		t.Error("equal pointees behind other pointers changed the key")
	}
	if k, _ := KeyFor(Options{DynamicRange: 150, Driver: &cfg}); k != before {
		t.Error("nil Subsystem and DefaultSubsystem key differently")
	}
	sub.TFT.C *= 3
	if k, _ := KeyFor(opts); k == before {
		t.Error("mutated Subsystem kept the key")
	}
	sub = power.DefaultSubsystem
	cfg.Vdd = 5
	if k, _ := KeyFor(opts); k == before {
		t.Error("mutated Driver kept the key")
	}
}

// sliceLC is an LC model whose dynamic type is not comparable.
type sliceLC struct{ table []float64 }

func (sliceLC) Transmittance(v float64) float64 { return v }
func (sliceLC) Voltage(t float64) float64       { return t }
func (sliceLC) Name() string                    { return "slice" }

// TestKeyForIncomparableDriverLC: a Driver whose LC model cannot be
// compared is not fingerprintable, and the plan cache is bypassed for
// it instead of panicking on ==.
func TestKeyForIncomparableDriverLC(t *testing.T) {
	cfg := driver.DefaultConfig
	cfg.LC = sliceLC{table: []float64{0, 1}}
	opts := Options{DynamicRange: 150, Driver: &cfg}
	if _, ok := KeyFor(opts); ok {
		t.Fatal("incomparable LC model fingerprinted")
	}
	img := testImg(t, "peppers")
	eng := NewEngine(EngineOptions{})
	for i := 0; i < 2; i++ {
		res, err := eng.Process(context.Background(), img, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.PlanCached {
			t.Fatalf("run %d: plan served from the cache for an incomparable driver", i)
		}
		res.Release()
	}
}

// TestStaleMemoDriverMutation: changing the driver config behind the
// same pointer between two runs on a caching engine must not serve
// the first run's plan, whose PLRD program was built for the old
// config.
func TestStaleMemoDriverMutation(t *testing.T) {
	img := testImg(t, "sail")
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	cfg := driver.DefaultConfig
	opts := Options{DynamicRange: 150, Driver: &cfg}
	first, err := eng.Process(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Release()
	cfg.Vdd = 5
	second, err := eng.Process(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Release()
	fresh, err := Process(img, Options{DynamicRange: 150, Driver: &driver.Config{Vdd: 5, Sources: cfg.Sources, DACBits: cfg.DACBits}})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first.Program, fresh.Program) {
		t.Fatal("Vdd change does not reach the program; the test proves nothing")
	}
	if !reflect.DeepEqual(second.Program, fresh.Program) {
		t.Errorf("second run's program (cached=%v, Vdd %v) is not the fresh program for Vdd 5",
			second.PlanCached, second.Program.Config.Vdd)
	}
	if second.RealizationError != fresh.RealizationError { //hebslint:allow floateq
		t.Errorf("realization error %v, fresh run %v", second.RealizationError, fresh.RealizationError)
	}
}
