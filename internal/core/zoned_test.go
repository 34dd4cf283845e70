package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/driver"
	"hebs/internal/gray"
	"hebs/internal/power"
	"hebs/internal/quality"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// TestBackendEquivalence is the refactor's regression anchor: the CCFL
// backend driven through the zoned engine path (one global zone) must
// reproduce the classic pipeline exactly — byte-identical transformed
// frames and bit-identical distortion and power numbers — across
// fixtures, worker counts and range-selection modes.
func TestBackendEquivalence(t *testing.T) {
	fixtures := []string{"lena", "baboon", "splash", "testpat"}
	optVariants := []struct {
		name string
		opts Options
	}{
		{"exact-budget10", Options{MaxDistortionPercent: 10, ExactSearch: true}},
		{"direct-range200", Options{DynamicRange: 200}},
	}
	backend := backlight.DefaultCCFL()
	for _, workers := range []int{1, 4} {
		eng := NewEngine(EngineOptions{Workers: workers})
		for _, fx := range fixtures {
			img, err := sipi.Generate(fx, 96, 96)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range optVariants {
				legacy, err := eng.Process(context.Background(), img, v.opts)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: Process: %v", fx, v.name, workers, err)
				}
				zoned, err := eng.ProcessZoned(context.Background(), img, v.opts, backend, nil)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: ProcessZoned: %v", fx, v.name, workers, err)
				}
				if !legacy.Transformed.Equal(zoned.Transformed) {
					t.Errorf("%s/%s workers=%d: transformed frames differ", fx, v.name, workers)
				}
				if len(zoned.Zones) != 1 {
					t.Fatalf("%s/%s: CCFL run produced %d zones", fx, v.name, len(zoned.Zones))
				}
				z := zoned.Zones[0]
				//hebslint:allow floateq bit-identity is the contract under test
				bad := z.Range != legacy.Range || z.Beta != legacy.Beta ||
					zoned.AchievedDistortion != legacy.AchievedDistortion ||
					zoned.PowerBefore != legacy.PowerBefore ||
					zoned.PowerAfter != legacy.PowerAfter ||
					zoned.PowerSavingPercent != legacy.PowerSavingPercent
				if bad {
					t.Errorf("%s/%s workers=%d: operating point diverged:\n  legacy R=%d β=%v D=%v P=(%v,%v) S=%v\n  zoned  R=%d β=%v D=%v P=(%v,%v) S=%v",
						fx, v.name, workers,
						legacy.Range, legacy.Beta, legacy.AchievedDistortion,
						legacy.PowerBefore, legacy.PowerAfter, legacy.PowerSavingPercent,
						z.Range, z.Beta, zoned.AchievedDistortion,
						zoned.PowerBefore, zoned.PowerAfter, zoned.PowerSavingPercent)
				}
				zoned.Release()
				legacy.Release()
			}
		}
	}
}

// spotlight builds a strongly non-uniform fixture: a dark textured
// field with one bright quadrant — the content class where per-zone
// dimming beats any global β.
func spotlight(w, h int) *gray.Image {
	img := gray.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 8 + (x*5+y*3)%24 // dark texture
			if x >= w*5/8 && x < w*7/8 && y >= h/8 && y < h*3/8 {
				v = 180 + (x+y)%60 // bright patch
			}
			img.Pix[y*w+x] = uint8(v)
		}
	}
	return img
}

// nightScene is the content class where local dimming genuinely wins:
// one zone carries amplitude-1 mid-gray dither — texture that linear
// range compression cannot touch, because merging its two levels
// erases the structure entirely (UQI of the affected windows collapses
// to zero) — while every other zone is flat black. The global search
// is hostage to the sensitive zone and must keep β at full drive; the
// zoned search pays full β only in that one zone.
func nightScene(w, h int) *gray.Image {
	img := gray.New(w, h)
	for y := 0; y < h/4; y++ {
		for x := 0; x < w/4; x++ {
			img.Pix[y*w+x] = uint8(127 + (x+y)%2)
		}
	}
	return img
}

// TestZonedLEDBeatsGlobalCCFLOnNonUniformContent pins the acceptance
// criterion: at the same D_max, the LED zone array draws less measured
// power than the global CCFL on non-uniform content, because only the
// compression-hostile zone needs full drive while the rest dim.
func TestZonedLEDBeatsGlobalCCFLOnNonUniformContent(t *testing.T) {
	img := nightScene(128, 128)
	opts := Options{MaxDistortionPercent: 2, ExactSearch: true}
	eng := NewEngine(EngineOptions{})

	ccfl, err := eng.ProcessZoned(context.Background(), img, opts, backlight.DefaultCCFL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ccfl.Release()
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	zoned, err := eng.ProcessZoned(context.Background(), img, opts, led, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer zoned.Release()

	if zoned.PowerAfter >= ccfl.PowerAfter {
		t.Fatalf("LED zoned power %v W not below global CCFL %v W on a spotlight frame",
			zoned.PowerAfter, ccfl.PowerAfter)
	}
	if zoned.BetaSpread <= 0 {
		t.Fatalf("expected a non-trivial β spread on non-uniform content, got %v", zoned.BetaSpread)
	}
	// Both paths ran the same D_max through the same range search; the
	// zoned win must come from sparing only the sensitive zone, not
	// from shortchanging it: zone 0 stays at full drive while the flat
	// zones dim well below it. (Per-zone achieved-UQI is not asserted:
	// UQI is degenerate on the zero-variance flat zones, where GHE maps
	// the single occupied level to the top of the range and the
	// reconstruction roundtrip is meaningless — the legacy pipeline
	// measures the same 100% on a flat frame.)
	if z0 := zoned.Zones[0]; z0.Beta != 1.0 || z0.Range != transform.Levels-1 {
		t.Errorf("dither zone not at full drive: β=%v R=%d", z0.Beta, z0.Range)
	}
	dimmed := 0
	for _, z := range zoned.Zones[1:] {
		if z.Beta <= 0.6 {
			dimmed++
		}
	}
	if dimmed < 10 {
		t.Errorf("only %d of 15 flat zones dimmed below 0.6", dimmed)
	}
}

// TestZonedWorkersIdentical: the zone fan-out must not change outputs.
func TestZonedWorkersIdentical(t *testing.T) {
	img := spotlight(96, 96)
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 3, Cols: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxDistortionPercent: 8, ExactSearch: true}
	var ref *ZonedResult
	for _, workers := range []int{1, 4} {
		eng := NewEngine(EngineOptions{Workers: workers})
		res, err := eng.ProcessZoned(context.Background(), img, opts, led, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !ref.Transformed.Equal(res.Transformed) {
			t.Errorf("workers=%d: transformed frames differ from serial run", workers)
		}
		for k := range ref.Zones {
			//hebslint:allow floateq determinism across worker counts is the contract
			if ref.Zones[k].Beta != res.Zones[k].Beta || ref.Zones[k].Range != res.Zones[k].Range ||
				ref.Zones[k].Distortion != res.Zones[k].Distortion {
				t.Errorf("workers=%d zone %d: operating point differs", workers, k)
			}
		}
		//hebslint:allow floateq determinism across worker counts is the contract
		if ref.PowerAfter != res.PowerAfter || ref.AchievedDistortion != res.AchievedDistortion {
			t.Errorf("workers=%d: aggregate measurements differ", workers)
		}
		res.Release()
	}
	ref.Release()
}

// fixedFloors is a ZoneFloors hook that ignores the targets and
// returns fs.
func fixedFloors(fs []float64) ZoneFloors {
	return func([]float64) []float64 { return fs }
}

// TestZonedBetaFloorRaisesZones: the floors hook (the video governor's
// slew input) runs once per call on the zone targets, its floors bind
// from below and never lower a zone, and a floor vector of the wrong
// length or outside [0,1] is rejected.
func TestZonedBetaFloorRaisesZones(t *testing.T) {
	img := spotlight(64, 64)
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	opts := Options{MaxDistortionPercent: 10, ExactSearch: true}
	free, err := eng.ProcessZoned(context.Background(), img, opts, led, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer free.Release()
	calls := 0
	floored, err := eng.ProcessZoned(context.Background(), img, opts, led, func(targets []float64) []float64 {
		calls++
		for k, tb := range targets {
			//hebslint:allow floateq the hook sees the targets the result reports
			if tb != free.Zones[k].TargetBeta {
				t.Errorf("hook target %d = %v, want the zone target %v", k, tb, free.Zones[k].TargetBeta)
			}
		}
		return []float64{0.9, 0.9, 0.9, 0.9}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer floored.Release()
	if calls != 1 {
		t.Errorf("floors hook ran %d times, want 1", calls)
	}
	for k := range floored.Zones {
		if floored.Zones[k].Beta < 0.9 {
			t.Errorf("zone %d β %v below its floor", k, floored.Zones[k].Beta)
		}
		if floored.Zones[k].Beta < free.Zones[k].Beta-1e-12 {
			t.Errorf("zone %d: floored run dimmer than free run", k)
		}
	}
	var fle *ZoneFloorLengthError
	if _, err := eng.ProcessZoned(context.Background(), img, opts, led, fixedFloors([]float64{0.5})); !errors.As(err, &fle) {
		t.Fatalf("floor length mismatch returned %v, want *ZoneFloorLengthError", err)
	}
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := eng.ProcessZoned(context.Background(), img, opts, led, fixedFloors([]float64{0.5, bad, 0.5, 0.5})); err == nil {
			t.Errorf("floor %v accepted, want an error", bad)
		}
	}
}

// TestZonedGridValidation: a grid with more zones than pixels per axis
// is rejected with the typed error.
func TestZonedGridValidation(t *testing.T) {
	img := gray.New(4, 4)
	for i := range img.Pix {
		img.Pix[i] = uint8(i * 16)
	}
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 8, Cols: 8})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	var ge *ZoneGridError
	_, err = eng.ProcessZoned(context.Background(), img, Options{DynamicRange: 200}, led, nil)
	if !errors.As(err, &ge) {
		t.Fatalf("oversized grid returned %v, want *ZoneGridError", err)
	}
}

// TestZonedLadderOptions: every grid rejects a PLRD Driver (a zoned
// result carries no driver program) and a grid of more than one zone
// rejects a PLC Segments budget, each with a typed error, while a 1×1
// grid is the panel's ladder and keeps Segments.
func TestZonedLadderOptions(t *testing.T) {
	img := spotlight(32, 32)
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.DefaultConfig
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	for _, c := range []struct {
		option     string
		b          backlight.Backend
		rows, cols int
		opts       Options
	}{
		{"Driver", led, 2, 2, Options{DynamicRange: 150, Driver: &cfg}},
		{"Driver", backlight.DefaultCCFL(), 1, 1, Options{DynamicRange: 150, Segments: 4, Driver: &cfg}},
		{"Driver", backlight.DefaultOLED(), 1, 1, Options{DynamicRange: 150, Driver: &cfg}},
		{"Segments", led, 2, 2, Options{DynamicRange: 150, Segments: 4}},
		{"Segments", led, 2, 2, Options{DynamicRange: 150, Segments: transform.Levels - 1}},
	} {
		var le *ZoneLadderError
		_, err := eng.ProcessZoned(ctx, img, c.opts, c.b, nil)
		if !errors.As(err, &le) || le.Option != c.option || le.Rows != c.rows || le.Cols != c.cols {
			t.Errorf("%s on %s returned %v, want *ZoneLadderError for %s", c.option, c.b.Name(), err, c.option)
		}
	}
	opts := Options{DynamicRange: 150, Segments: 4}
	for _, b := range []backlight.Backend{backlight.DefaultCCFL(), backlight.DefaultOLED()} {
		zr, err := eng.ProcessZoned(ctx, img, opts, b, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		want, err := eng.Process(ctx, img, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !zr.Transformed.Equal(want.Transformed) {
			t.Errorf("%s: the 1x1 zone did not keep the m = 4 ladder plan", b.Name())
		}
		want.Release()
		zr.Release()
	}
}

// TestZonedSmoothingBoundsGradient: on a frame whose one full-drive
// zone sits among black zones the relaxation runs, and the applied β
// field respects DefaultZoneMaxGradient (up to one quantization step).
func TestZonedSmoothingBoundsGradient(t *testing.T) {
	img := nightScene(128, 128)
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	opts := Options{MaxDistortionPercent: 10, ExactSearch: true}
	res, err := eng.ProcessZoned(context.Background(), img, opts, led, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if res.SmoothSweeps == 0 {
		t.Fatal("spotlight frame ran no smoothing sweep")
	}
	g := res.Grid
	bound := DefaultZoneMaxGradient + 1.0/255.0 + 1e-9
	for k, z := range res.Zones {
		if k%g.Cols+1 < g.Cols {
			if d := z.Beta - res.Zones[k+1].Beta; d > bound || -d > bound {
				t.Errorf("zones %d,%d gradient %v exceeds bound", k, k+1, d)
			}
		}
		if k/g.Cols+1 < g.Rows {
			if d := z.Beta - res.Zones[k+g.Cols].Beta; d > bound || -d > bound {
				t.Errorf("zones %d,%d gradient %v exceeds bound", k, k+g.Cols, d)
			}
		}
	}
}

// crop copies img's [x0,x1)×[y0,y1) rectangle into a new image.
func crop(img *gray.Image, x0, y0, x1, y1 int) *gray.Image {
	c := gray.New(x1-x0, y1-y0)
	for y := y0; y < y1; y++ {
		copy(c.Pix[(y-y0)*c.W:(y-y0+1)*c.W], img.Pix[y*img.W+x0:y*img.W+x1])
	}
	return c
}

// paste writes src into dst's rectangle with top-left (x0,y0).
func paste(dst, src *gray.Image, x0, y0 int) {
	for y := 0; y < src.H; y++ {
		copy(dst.Pix[(y0+y)*dst.W+x0:(y0+y)*dst.W+x0+src.W], src.Pix[y*src.W:(y+1)*src.W])
	}
}

// TestZonedMatchesPerZoneProcess checks the zoned walk against an
// oracle that shares none of its code: the classic Engine.Process run
// on each zone's crop at the zone's applied range. On a multi-zone
// grid the oracle runs the Eq. 9 PLC DP at m = G−1, whose all-points
// cover must reproduce the digital zone LUT; on a 1×1 grid it runs the
// default ladder budget, like the zone. Per zone, the
// transformed rectangle and the distortion must match the crop's run
// bit for bit, and TargetBeta must be the β of SelectRange on the
// crop. Per frame, AchievedDistortion must be the UQI of the mosaic of
// per-zone reconstructions, and the powers the zone-index-order sums
// of the backend's zone power. The 97×95 frame divides by no grid, so
// zones differ in size.
func TestZonedMatchesPerZoneProcess(t *testing.T) {
	led4, err := backlight.NewLED(backlight.LEDOptions{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	led3, err := backlight.NewLED(backlight.LEDOptions{Rows: 3, Cols: 3})
	if err != nil {
		t.Fatal(err)
	}
	backends := []backlight.Backend{led4, led3, backlight.DefaultOLED()}
	opts := Options{MaxDistortionPercent: 10, ExactSearch: true}
	eng := NewEngine(EngineOptions{})
	oracle := NewEngine(EngineOptions{PlanCacheSize: -1})
	ctx := context.Background()
	raised := 0
	for _, fx := range []string{"lena", "baboon", "splash"} {
		img, err := sipi.Generate(fx, 97, 95)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			segments := 0
			if b.Grid().Zones() > 1 {
				segments = transform.Levels - 1
			}
			for _, floored := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/floors=%v", fx, b.Name(), floored)
				var floors ZoneFloors
				if floored {
					fs := make([]float64, b.Grid().Zones())
					for k := range fs {
						fs[k] = 0.35 + 0.05*float64(k%8)
					}
					floors = fixedFloors(fs)
				}
				zr, err := eng.ProcessZoned(ctx, img, opts, b, floors)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				mosaic := gray.New(img.W, img.H)
				covered := make([]int, len(img.Pix))
				var before, after float64
				for k, z := range zr.Zones {
					if z.Beta > z.TargetBeta {
						raised++
					}
					zimg := crop(img, z.X0, z.Y0, z.X1, z.Y1)
					r, _, err := oracle.SelectRange(ctx, zimg, opts)
					if err != nil {
						t.Fatal(err)
					}
					target, err := power.BetaForRange(r, transform.Levels)
					if err != nil {
						t.Fatal(err)
					}
					res, err := oracle.Process(ctx, zimg, Options{DynamicRange: z.Range, Segments: segments})
					if err != nil {
						t.Fatalf("%s zone %d: %v", name, k, err)
					}
					//hebslint:allow floateq bit-identity is the contract under test
					if z.TargetBeta != target || z.Distortion != res.AchievedDistortion {
						t.Errorf("%s zone %d: target β %v distortion %v, per-zone oracle %v %v",
							name, k, z.TargetBeta, z.Distortion, target, res.AchievedDistortion)
					}
					if !crop(zr.Transformed, z.X0, z.Y0, z.X1, z.Y1).Equal(res.Transformed) {
						t.Errorf("%s zone %d: transformed rectangle differs from the per-zone oracle", name, k)
					}
					recon, err := res.Lambda.Reconstruction()
					if err != nil {
						t.Fatal(err)
					}
					zrec := gray.New(zimg.W, zimg.H)
					if err := recon.ApplyInto(zimg, zrec); err != nil {
						t.Fatal(err)
					}
					paste(mosaic, zrec, z.X0, z.Y0)
					for y := z.Y0; y < z.Y1; y++ {
						for x := z.X0; x < z.X1; x++ {
							covered[y*img.W+x]++
						}
					}
					// Zone content from the crops: the same rows in the
					// same order as the frame rectangle.
					total := len(img.Pix)
					pb, err := b.ZonePower(1, backlight.ContentOfRect(zimg, 0, 0, zimg.W, zimg.H, total))
					if err != nil {
						t.Fatal(err)
					}
					pa, err := b.ZonePower(z.Beta, backlight.ContentOfRect(res.Transformed, 0, 0, zimg.W, zimg.H, total))
					if err != nil {
						t.Fatal(err)
					}
					before += pb.Total()
					after += pa.Total()
					res.Release()
				}
				for i, c := range covered {
					if c != 1 {
						t.Fatalf("%s: pixel %d covered by %d zones", name, i, c)
					}
				}
				q, err := quality.UQI(img, mosaic, quality.UQIOptions{})
				if err != nil {
					t.Fatal(err)
				}
				d := quality.DistortionPercent(q)
				//hebslint:allow floateq bit-identity is the contract under test
				if zr.AchievedDistortion != d || zr.PowerBefore != before || zr.PowerAfter != after {
					t.Errorf("%s: frame D=%v P=(%v,%v), per-zone oracle D=%v P=(%v,%v)",
						name, zr.AchievedDistortion, zr.PowerBefore, zr.PowerAfter, d, before, after)
				}
				zr.Release()
			}
		}
	}
	if raised == 0 {
		t.Error("the floors raised no zone; the floored leg is vacuous")
	}
	t.Logf("%d zones ran above their own target β", raised)
}
