package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hebs/internal/obs"
)

// runOps generates n ops of a workload, runs the first warm of them
// untimed and returns the registry change across the rest, with the
// ops themselves.
func runOps(t *testing.T, w *workload, seed uint64, n, warm int) (snapshotDelta, []op) {
	t.Helper()
	ops, err := w.generate(seed, streamTimed, n)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := w.setup()
	if err != nil {
		t.Fatal(err)
	}
	var d snapshotDelta
	for i := range ops {
		if i == warm {
			d.before = obs.Default().Snapshot()
		}
		out, err := sys.call(context.Background(), &ops[i], nil)
		if err != nil {
			t.Fatalf("%s op %d: %v", w.name, i, err)
		}
		if bad := checkRecord(toRecord(out), sys.budget(&ops[i]), sys.pol); len(bad) > 0 {
			t.Fatalf("%s op %d: %v", w.name, i, bad)
		}
	}
	d.after = obs.Default().Snapshot()
	return d, ops[warm:]
}

// Each workload keeps, on seeds 1 and 2, the property it was chosen
// for.
func TestWorkloadProperties(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed%d/photo", seed), func(t *testing.T) {
			d, _ := runOps(t, mustWorkload(t, "photo"), seed, 2, 0)
			if hits := d.counter("core.plan_cache_hits_total"); hits != 0 {
				t.Errorf("seed %d: %v plan-cache hits, want none", seed, hits)
			}
		})
		t.Run(fmt.Sprintf("seed%d/scroll", seed), func(t *testing.T) {
			// Slews need a fling while a bright section leaves the view,
			// so this property needs a round's worth of clips, not two.
			w := mustWorkload(t, "scroll")
			d, ops := runOps(t, w, seed, w.roundOps, 0)
			moved, frames := movedFrames(ops)
			tiles := d.counter("video.delta.tiles_rebinned_total")
			perFrame := float64((scrollW + 63) / 64 * ((scrollH + 63) / 64))
			if tiles < perFrame*float64(moved) {
				t.Errorf("seed %d: %v tiles re-binned over %d moved frames, want every tile (%v each)", seed, tiles, moved, perFrame)
			}
			if slew := d.counter("video.slew_limited_total"); slew == 0 {
				t.Errorf("seed %d: no slew-limited frame in %d frames", seed, frames)
			}
		})
		t.Run(fmt.Sprintf("seed%d/talking-zoned", seed), func(t *testing.T) {
			d, ops := runOps(t, mustWorkload(t, "talking-zoned"), seed, 2, 1)
			frames := float64(len(ops) * clipFrames)
			if dirty := d.counter("core.zoned.zone_rebins_total") / frames; dirty < 2 || dirty > 6 {
				t.Errorf("seed %d: %.2f dirty zones per frame, want 2-6", seed, dirty)
			}
			hits, misses := d.counter("core.plan_cache_hits_total"), d.counter("core.plan_cache_misses_total")
			if r := ratio(hits, hits+misses); r >= 0.1 {
				t.Errorf("seed %d: plan hit ratio %.3f after warm-up, want < 0.1", seed, r)
			}
		})
		t.Run(fmt.Sprintf("seed%d/slides", seed), func(t *testing.T) {
			d, ops := runOps(t, mustWorkload(t, "slides"), seed, 2, 0)
			frames := float64(len(ops) * clipFrames)
			if r := d.counter("video.delta.frames_fastpath_total") / frames; r < 0.8 {
				t.Errorf("seed %d: fast-path ratio %.3f, want >= 0.8", seed, r)
			}
		})
	}
}

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// movedFrames counts the frames whose pixels differ from the frame
// before them (the first frame counts as moved), and all frames.
func movedFrames(ops []op) (moved, frames int) {
	var prev []byte
	for i := range ops {
		for _, f := range ops[i].frameList() {
			if !bytes.Equal(prev, f.Pix) {
				moved++
			}
			prev = f.Pix
			frames++
		}
	}
	return moved, frames
}

// inputDigest hashes every input byte of ops: pixels, budgets, zones.
func inputDigest(ops []op) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range ops {
		o := &ops[i]
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(o.budget))
		_, _ = h.Write(buf[:])
		for _, v := range []int{o.zone.Min.X, o.zone.Min.Y, o.zone.Max.X, o.zone.Max.Y} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			_, _ = h.Write(buf[:])
		}
		for _, f := range o.frameList() {
			_, _ = h.Write(f.Pix)
		}
	}
	return h.Sum64()
}

// The same seed reproduces identical input bytes; another seed or the
// warm-up stream does not.
func TestSeedsReproduce(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed uint64, stream int) uint64 {
			ops, err := w.generate(seed, stream, 2)
			if err != nil {
				t.Fatal(err)
			}
			return inputDigest(ops)
		}
		a, b := gen(1, streamTimed), gen(1, streamTimed)
		if a != b {
			t.Errorf("%s: seed 1 generated different inputs twice", w.name)
		}
		if gen(2, streamTimed) == a {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w.name)
		}
		if gen(1, streamWarmup) == a {
			t.Errorf("%s: warm-up and timed streams are identical", w.name)
		}
	}
}
