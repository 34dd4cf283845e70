package video

import (
	"fmt"
	"reflect"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// fuzzFrameSide keeps frames large enough for the UQI sliding window
// yet cheap to equalize.
const fuzzFrameSide = 16

// FuzzDetectCuts builds short random sequences and checks that cut
// detection never panics and only reports valid, strictly increasing
// cut indices, then runs the slew-rate policy over the same frames and
// checks every applied backlight factor is admissible (β ∈ (0,1]).
func FuzzDetectCuts(f *testing.F) {
	f.Add([]byte{0, 128, 255, 3}, uint8(3), uint8(200), uint8(20))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{255, 255, 0, 0, 17}, uint8(2), uint8(120), uint8(255))
	f.Fuzz(func(t *testing.T, pix []byte, nf8, r8, step8 uint8) {
		nf := 2 + int(nf8)%3 // [2,4] frames
		frames := make([]*gray.Image, nf)
		perFrame := fuzzFrameSide * fuzzFrameSide
		for k := range frames {
			img := gray.New(fuzzFrameSide, fuzzFrameSide)
			for p := range img.Pix {
				if len(pix) > 0 {
					img.Pix[p] = pix[(k*perFrame+p)%len(pix)]
				} else {
					img.Pix[p] = uint8(k*37 + p)
				}
			}
			frames[k] = img
		}
		seq, err := NewSequence(frames)
		if err != nil {
			t.Fatalf("NewSequence: %v", err)
		}
		cuts, err := DetectCuts(seq, float64(step8))
		if err != nil {
			t.Fatalf("DetectCuts: %v", err)
		}
		for i, c := range cuts {
			if c < 1 || c >= nf {
				t.Fatalf("cut index %d outside [1,%d)", c, nf)
			}
			if i > 0 && c <= cuts[i-1] {
				t.Fatalf("cut indices not increasing: %v", cuts)
			}
		}
		pol := Policy{
			MaxStep: float64(1+int(step8)) / 255,
			Options: core.Options{DynamicRange: 1 + int(r8)%(transform.Levels-1)},
		}
		res, err := Process(seq, pol)
		if err != nil {
			t.Fatalf("Process: %v", err)
		}
		for i, fr := range res.Frames {
			if !(fr.Beta > 0 && fr.Beta <= 1) {
				t.Fatalf("frame %d: applied β = %v outside (0,1]", i, fr.Beta)
			}
			if !(fr.TargetBeta > 0 && fr.TargetBeta <= 1) {
				t.Fatalf("frame %d: target β = %v outside (0,1]", i, fr.TargetBeta)
			}
		}
	})
}

// fuzzScenes are the two 128×64 scenes the fuzzed walks crop their
// 48×48 frames from; a cut switches between them.
var fuzzScenes = func() [2]*gray.Image {
	var s [2]*gray.Image
	for i, name := range []string{"autumn", "splash"} {
		img, err := sipi.Generate(name, 128, 64)
		if err != nil {
			panic(err)
		}
		s[i] = img
	}
	return s
}()

// fuzzClip builds a clip from script: frame 0 crops the first scene at
// x = 0, and each of the low n%6 script bytes (least significant
// first) adds one frame — b%ops == 0 pans right by 1+(b/ops)%8 pixels,
// 1 holds the previous frame, 2 cuts to the other scene, and 3 (when
// ops is 4) adds the current crop flashed to p/2+128. At most 6 frames:
// each exec runs the clip several times, with some plans solved
// uncached, so frames are its cost.
func fuzzClip(t *testing.T, script uint64, n uint8, ops int) *Sequence {
	const side = 48
	scene, x := 0, 0
	crop := func() *gray.Image {
		src := fuzzScenes[scene]
		f := gray.New(side, side)
		for y := 0; y < side; y++ {
			copy(f.Pix[y*side:(y+1)*side], src.Pix[y*src.W+x:y*src.W+x+side])
		}
		return f
	}
	frames := []*gray.Image{crop()}
	for k := 0; k < int(n%6); k++ {
		b := uint8(script >> (8 * k))
		switch int(b) % ops {
		case 0:
			x = (x + 1 + int(b)/ops%8) % (128 - side + 1)
			frames = append(frames, crop())
		case 1:
			frames = append(frames, frames[len(frames)-1])
		case 2:
			scene = 1 - scene
			frames = append(frames, crop())
		case 3:
			f := crop()
			for p, v := range f.Pix {
				f.Pix[p] = v/2 + 128
			}
			frames = append(frames, f)
		}
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// FuzzClipWalk is the differential oracle of the classic clip walk:
// over held frames, pans, cuts and flashes, with DeltaAnalysis on and
// off, ReuseThreshold {0, 4}, Workers {1, 2}, MaxStep {0, 0.01, k/255}
// and CutThreshold {0, 0.15}, Process returns referenceWalk's Result
// and never dims by more than MaxStep outside a scene cut.
// Each input runs twice on one shared engine, so the second run starts
// from frame −1 — the first run's last frame with its own range and
// measurements — and may fuse from it. Each input gets a fresh engine,
// so its first run starts cold and a failing input fails alone too.
func FuzzClipWalk(f *testing.F) {
	// testdata/fuzz/FuzzClipWalk/fuse_frame_minus1 cuts away and back
	// (frames A, B, A) with delta analysis on and no slew limit: the
	// second run's frame 0 is identical to frame −1, replays its range
	// and fuses from its measurements.
	f.Add(uint64(0x0102030001), uint8(5), true, true, true, uint8(1), true)
	f.Add(uint64(0x01030204), uint8(4), true, false, true, uint8(3), false)
	f.Add(uint64(0x0301), uint8(2), false, true, false, uint8(40), true)
	f.Fuzz(func(t *testing.T, script uint64, n uint8, delta, reuse, twoWorkers bool, step uint8, cut bool) {
		seq := fuzzClip(t, script, n, 4)
		pol := Policy{
			DeltaAnalysis: delta,
			Workers:       1,
			Engine:        core.NewEngine(core.EngineOptions{Workers: 1}),
			Options:       core.Options{MaxDistortionPercent: 10, ExactSearch: true},
		}
		if reuse {
			pol.ReuseThreshold = 4
		}
		if twoWorkers {
			pol.Workers = 2
		}
		pol.MaxStep = float64(step) / 255
		if step == 1 {
			pol.MaxStep = 0.01
		}
		if cut {
			pol.CutThreshold = 0.15
		}
		want, err := referenceWalk(seq, pol)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			got, err := Process(seq, pol)
			if err != nil {
				t.Fatal(err)
			}
			checkSlewBound(t, fmt.Sprintf("run %d", run), got, pol)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d: result differs from the reference walk:\n got %+v\nwant %+v", run, got, want)
			}
		}
	})
}

// FuzzZonedWalk is the differential oracle of the zoned clip walk:
// over pans, held frames and cuts on LED grids from 1×1 to 4×4, PWM
// depths {8, 4, 10} bits, hardware slew, MaxStep, CutThreshold and
// DeltaAnalysis, every FrameResult of a run with all memos on equals
// the run with all of them off — DeltaAnalysis off, a cache-off engine
// and the non-comparable memoOff backend, so no state outlives an
// engine call.
func FuzzZonedWalk(f *testing.F) {
	// testdata/fuzz/FuzzZonedWalk/stale_replay holds a pan with held
	// frames on a 2×2 10-bit grid at MaxStep 0.002, budget 20 and
	// DeltaAnalysis on: the held frames' floors still move the field.
	f.Add(uint64(0x0001020102), uint8(5), uint8(15), uint8(0), true, uint8(20), uint8(50), uint8(5), true)
	f.Add(uint64(0x030101), uint8(3), uint8(0), uint8(1), false, uint8(0), uint8(0), uint8(0), false)
	// The script is an integer, not a []byte: the fuzzer minimizes
	// every new []byte input with up to hundreds of full execs, and at
	// tens of milliseconds per exec that crowds out exploration.
	f.Fuzz(func(t *testing.T, script uint64, n, grid, pwm uint8, slew bool, step, cut, budget uint8, delta bool) {
		seq := fuzzClip(t, script, n, 3)
		opts := backlight.LEDOptions{
			Rows:    1 + int(grid)%4,
			Cols:    1 + int(grid/4)%4,
			PWMBits: []int{0, 4, 10}[pwm%3],
		}
		if slew {
			opts.SlewPerFrame = 0.01
		}
		led, err := backlight.NewLED(opts)
		if err != nil {
			t.Fatal(err)
		}
		pol := Policy{
			MaxStep:       float64(step) / 500,
			CutThreshold:  float64(cut) / 500,
			DeltaAnalysis: delta,
			Backend:       led,
			Options:       core.Options{MaxDistortionPercent: float64(5 + budget%20), ExactSearch: true},
		}
		memo, err := Process(seq, pol)
		if err != nil {
			t.Fatal(err)
		}
		pol.DeltaAnalysis = false
		pol.Backend = memoOff{Backend: led}
		pol.Engine = core.NewEngine(core.EngineOptions{Workers: 1, PlanCacheSize: -1})
		ref, err := Process(seq, pol)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Frames {
			if memo.Frames[i] != ref.Frames[i] {
				t.Fatalf("frame %d:\n memo %+v\n  ref %+v", i, memo.Frames[i], ref.Frames[i])
			}
		}
	})
}
