package video

import (
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/obs"
)

// patchClip is a talking-head-style clip: a static base with one
// animated patch, so most zones of a 4×4 grid are byte-identical
// frame to frame while a few keep changing.
func patchClip(t *testing.T, n int) *Sequence {
	t.Helper()
	b := base(t)
	frames := make([]*gray.Image, n)
	for i := range frames {
		f := gray.New(b.W, b.H)
		copy(f.Pix, b.Pix)
		x0, y0 := f.W/2, 2*f.H/3
		for y := y0; y < y0+f.H/10 && y < f.H; y++ {
			for x := x0; x < x0+f.W/6 && x < f.W; x++ {
				f.Pix[y*f.W+x] = uint8(96 + (x+y+7*i)%64)
			}
		}
		frames[i] = f
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// memoOff wraps a backend in a non-comparable value, which switches
// off core's cross-call zoned memo: with a PlanCacheSize < 0 engine the
// zoned walk then recomputes every zone of every frame (the memo-off
// oracle). Wrapping hides the backend's dynamic type, so it is only
// applied to zoned backends — a wrapped CCFL would leave the classic
// walk.
type memoOff struct {
	backlight.Backend
	_ func()
}

// zonedReplayCounts reads core's zone and frame replay counters.
func zonedReplayCounts() (zones, frames int64) {
	return obs.NewCounter("core.zoned.zone_replays_total").Value(),
		obs.NewCounter("core.zoned.frame_replays_total").Value()
}

// TestZonedClipFastPathEquivalence is the video-layer leg of the
// zoned equivalence suite: whole clips through the per-zone governor —
// backends × workers {1,4} × delta on/off × global and zone-local
// motion and a held frame — produce bit-identical FrameResults with
// core's memos on and with them off (a cache-off engine and, for the
// zoned backend, the non-comparable wrapper). The memo-off runs must
// replay nothing and the memo runs must replay zones and frames; the
// CCFL leg runs the classic walk, which replays neither, and pins the
// plan cache alone.
func TestZonedClipFastPathEquivalence(t *testing.T) {
	pan, err := Pan(base(t), 48, 48, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	held := patchClip(t, 8) // the patch stops moving after frame 3
	for i := 4; i < len(held.Frames); i++ {
		held.Frames[i] = held.Frames[3]
	}
	clips := []struct {
		name string
		seq  *Sequence
	}{
		{"pan", pan},
		{"patch", patchClip(t, 8)},
		{"held", held},
	}
	backends := []backlight.Backend{backlight.DefaultCCFL(), ledBackend(t, 4, 4)}
	opts := core.Options{MaxDistortionPercent: 10, ExactSearch: true}
	var zoneReplays, frameReplays int64
	for _, clip := range clips {
		for _, b := range backends {
			_, zoned := b.(*backlight.LED)
			for _, workers := range []int{1, 4} {
				for _, delta := range []bool{false, true} {
					pol := Policy{
						MaxStep: 0.05, CutThreshold: 0.2, Options: opts,
						Workers: workers, DeltaAnalysis: delta, Backend: b,
					}
					z0, f0 := zonedReplayCounts()
					memo, err := Process(clip.seq, pol)
					if err != nil {
						t.Fatal(err)
					}
					z1, f1 := zonedReplayCounts()
					zoneReplays += z1 - z0
					frameReplays += f1 - f0

					pol.Engine = core.NewEngine(core.EngineOptions{Workers: workers, PlanCacheSize: -1})
					if zoned {
						pol.Backend = memoOff{Backend: b}
					}
					ref, err := Process(clip.seq, pol)
					if err != nil {
						t.Fatal(err)
					}
					if z2, f2 := zonedReplayCounts(); z2 != z1 || f2 != f1 {
						t.Fatalf("%s/%s workers=%d delta=%v: memo-off oracle replayed %d zones and %d frames",
							clip.name, b.Name(), workers, delta, z2-z1, f2-f1)
					}
					if len(memo.Frames) != len(ref.Frames) {
						t.Fatalf("%s/%s workers=%d delta=%v: frame counts differ",
							clip.name, b.Name(), workers, delta)
					}
					for i := range memo.Frames {
						if memo.Frames[i] != ref.Frames[i] {
							t.Errorf("%s/%s workers=%d delta=%v frame %d:\n memo %+v\n  ref %+v",
								clip.name, b.Name(), workers, delta, i, memo.Frames[i], ref.Frames[i])
						}
					}
				}
			}
		}
	}
	if zoneReplays == 0 || frameReplays == 0 {
		t.Errorf("memo runs replayed %d zones and %d frames, want both > 0", zoneReplays, frameReplays)
	}
}
