package core

import (
	"context"
	"reflect"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/gray"
	"hebs/internal/sipi"
)

// zonedSnapshot is everything observable about a ZonedResult, with the
// pooled Transformed pixels copied out and the run-history-dependent
// PlanCached flags normalized away.
type zonedSnapshot struct {
	pix    []byte
	zones  []ZoneResult
	frames struct {
		achieved, before, after, saving        float64
		betaMin, betaMax, betaMean, betaSpread float64
		sweeps                                 int
	}
}

func snapshotZoned(zr *ZonedResult) zonedSnapshot {
	var s zonedSnapshot
	s.pix = append([]byte(nil), zr.Transformed.Pix...)
	s.zones = append([]ZoneResult(nil), zr.Zones...)
	for k := range s.zones {
		s.zones[k].PlanCached = false
	}
	s.frames.achieved = zr.AchievedDistortion
	s.frames.before = zr.PowerBefore
	s.frames.after = zr.PowerAfter
	s.frames.saving = zr.PowerSavingPercent
	s.frames.betaMin = zr.BetaMin
	s.frames.betaMax = zr.BetaMax
	s.frames.betaMean = zr.BetaMean
	s.frames.betaSpread = zr.BetaSpread
	s.frames.sweeps = zr.SmoothSweeps
	return s
}

// zonedWalkFrames builds a short clip with zone-local change: frame 0
// is the fixture, middle frames mutate a moving patch (some zones
// rebin, the rest skip), and the final frames repeat so the all-replay
// path runs.
func zonedWalkFrames(t *testing.T, fx string, n int) []*gray.Image {
	t.Helper()
	base, err := sipi.Generate(fx, 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*gray.Image, n)
	for i := range frames {
		f := gray.New(base.W, base.H)
		copy(f.Pix, base.Pix)
		if i > 0 && i < n-2 {
			x0, y0 := 12+(i*17)%48, 8+(i*11)%48
			for y := y0; y < y0+12 && y < f.H; y++ {
				for x := x0; x < x0+20 && x < f.W; x++ {
					f.Pix[y*f.W+x] = uint8(40 + (x+3*y+29*i)%180)
				}
			}
		} else if i == n-1 {
			copy(f.Pix, frames[i-1].Pix)
		}
		frames[i] = f
	}
	return frames
}

// zonedWalk runs the frames through one engine like the video governor
// does — per-zone dimming floors derived from the previous frame's
// applied field — and snapshots every result.
func zonedWalk(t *testing.T, eng *Engine, frames []*gray.Image, opts Options, b backlight.Backend) []zonedSnapshot {
	t.Helper()
	zones := b.Grid().Zones()
	var prev []float64
	snaps := make([]zonedSnapshot, 0, len(frames))
	for i, f := range frames {
		var hook ZoneFloors
		if prev != nil {
			floors := make([]float64, zones)
			for k := range floors {
				v := prev[k] - 0.04
				if v < 0 {
					v = 0
				}
				floors[k] = v
			}
			hook = fixedFloors(floors)
		}
		zr, err := eng.ProcessZoned(context.Background(), f, opts, b, hook)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		prev = make([]float64, zones)
		for k := range zr.Zones {
			prev[k] = zr.Zones[k].Beta
		}
		snaps = append(snaps, snapshotZoned(zr))
		zr.Release()
	}
	return snaps
}

// memoOff wraps a backend in a non-comparable value: acquireZonedState
// then cannot fingerprint the call, so ProcessZoned keeps no memo
// across calls and every zone re-analyzes and re-measures. Together with a
// PlanCacheSize < 0 engine this is the memo-off oracle — the one
// zoned walk with every cross-call shortcut switched off.
type memoOff struct {
	backlight.Backend
	_ func()
}

// replayCounts reads the zoned walk's zone and frame replay counters.
func replayCounts() (zones, frames int64) {
	return mZonedZoneReplays.Value(), mZonedFrameReplays.Value()
}

// oracleWalk runs zonedWalk on the memo-off oracle and fails the test
// if any zone or frame replayed during it.
func oracleWalk(t *testing.T, workers int, frames []*gray.Image, opts Options, b backlight.Backend) []zonedSnapshot {
	t.Helper()
	z0, f0 := replayCounts()
	snaps := zonedWalk(t, NewEngine(EngineOptions{Workers: workers, PlanCacheSize: -1}), frames, opts, memoOff{Backend: b})
	if z1, f1 := replayCounts(); z1 != z0 || f1 != f0 {
		t.Fatalf("memo-off oracle replayed %d zones and %d frames", z1-z0, f1-f0)
	}
	return snaps
}

// TestZonedFastPathEquivalence pins the memoized walk bit-for-bit
// against the memo-off oracle: fixtures × backends (ccfl, led:4x4,
// oled) × workers {1,4}, over a clip that exercises unchanged zones,
// changed zones, floor-shifted operating points and full-frame
// replays. The memo runs must replay zones and frames, so a shortcut
// that silently stopped firing fails here too. (Replays are summed
// over the grid: the race runtime drops a quarter of sync.Pool puts,
// so any single run may lose its state.)
func TestZonedFastPathEquivalence(t *testing.T) {
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	oled, err := backlight.NewOLED(0.3, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	backends := []backlight.Backend{backlight.DefaultCCFL(), led, oled}
	opts := Options{MaxDistortionPercent: 10, ExactSearch: true}
	var zoneReplays, frameReplays int64
	for _, workers := range []int{1, 4} {
		for _, b := range backends {
			for _, fx := range []string{"lena", "baboon"} {
				frames := zonedWalkFrames(t, fx, 7)

				z0, f0 := replayCounts()
				memo := zonedWalk(t, NewEngine(EngineOptions{Workers: workers}), frames, opts, b)
				z1, f1 := replayCounts()
				zoneReplays += z1 - z0
				frameReplays += f1 - f0
				ref := oracleWalk(t, workers, frames, opts, b)

				for i := range frames {
					if !reflect.DeepEqual(memo[i], ref[i]) {
						t.Errorf("%s/%s workers=%d frame %d: memoized walk diverged from the memo-off oracle\n memo: %+v\n  ref: %+v",
							b.Name(), fx, workers, i, memo[i].frames, ref[i].frames)
					}
				}
			}
		}
	}
	if zoneReplays == 0 || frameReplays == 0 {
		t.Errorf("memo runs replayed %d zones and %d frames, want both > 0", zoneReplays, frameReplays)
	}
}

// TestZonedFastPathKeyInvalidation: changing the operating point
// between calls must invalidate every memo — same pixels, different
// budget, no replay, different answers, still matching the memo-off
// oracle. Repeating the last budget must then replay.
func TestZonedFastPathKeyInvalidation(t *testing.T) {
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	img, err := sipi.Generate("splash", 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{Workers: 1})
	var got []zonedSnapshot
	call := func(budget float64) (zones, frames int64) {
		t.Helper()
		z0, f0 := replayCounts()
		zr, err := eng.ProcessZoned(context.Background(), img, Options{MaxDistortionPercent: budget, ExactSearch: true}, led, nil)
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		z1, f1 := replayCounts()
		got = append(got, snapshotZoned(zr))
		zr.Release()
		return z1 - z0, f1 - f0
	}
	budgets := []float64{10, 4, 10, 25}
	for i, budget := range budgets {
		if z, f := call(budget); i > 0 && (z != 0 || f != 0) {
			t.Errorf("call %d (budget %v): %d zones and %d frames replayed across an option change", i, budget, z, f)
		}
	}
	// A lost pooled state (GC, or the race runtime's dropped puts)
	// only delays the replay by one call.
	last := budgets[len(budgets)-1]
	replayed := false
	for tries := 0; tries < 8 && !replayed; tries++ {
		budgets = append(budgets, last)
		z, f := call(last)
		replayed = z > 0 && f > 0
	}
	if !replayed {
		t.Error("repeating the last budget never replayed its zones and frame")
	}
	// The oracle runs after the memo calls: it shares the state pool
	// and would invalidate the memo it draws.
	for i, budget := range budgets {
		want := oracleWalk(t, 1, []*gray.Image{img}, Options{MaxDistortionPercent: budget, ExactSearch: true}, led)
		if !reflect.DeepEqual(got[i], want[0]) {
			t.Errorf("call %d (budget %v): memoized walk diverged from the memo-off oracle", i, budget)
		}
	}
}
