package video

import (
	"reflect"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/obs"
	"hebs/internal/power"
	"hebs/internal/sipi"
)

// checkSharedEngineAcrossClips runs several clips back to back through
// one shared engine, which carries warm pools, the plan cache and the
// reconstruction cache (and, with delta analysis on, frame −1) from
// walk to walk. Every Result must equal the reference
// walk at Workers 0, 1 and 4, and no pooled buffer may leak.
func checkSharedEngineAcrossClips(t *testing.T, delta bool) {
	t.Helper()
	fixtures := pipelineFixtures(t)
	eng := core.NewEngine(core.EngineOptions{})
	pol := steadyPolicy()
	order := []string{"static", "static", "pan", "static", "mixed", "static"}
	want := map[string]*Result{}
	for _, name := range order {
		r, err := referenceWalk(fixtures[name], pol)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = r
	}
	pol.Engine = eng
	for _, workers := range []int{0, 1, 4} {
		for step, name := range order {
			wpol := pol
			wpol.DeltaAnalysis, wpol.Workers = delta, workers
			got, err := Process(fixtures[name], wpol)
			if err != nil {
				t.Fatalf("delta=%v workers=%d step %d (%s): %v", delta, workers, step, name, err)
			}
			if !reflect.DeepEqual(got, want[name]) {
				t.Fatalf("delta=%v workers=%d step %d (%s): result differs from the reference walk after pooled reuse:\n got %+v\nwant %+v",
					delta, workers, step, name, got, want[name])
			}
		}
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak: %d buffers still in use", inUse)
	}
}

// TestPipelinedSharedEngineMatchesSerial: inline and fanned-out walks
// through one shared engine keep equal to the serial reference walk
// and leak no pooled buffers.
func TestPipelinedSharedEngineMatchesSerial(t *testing.T) {
	checkSharedEngineAcrossClips(t, false)
}

// TestDeltaSharedEngineAcrossClips: the engine's frame −1 carries a
// reference frame and memoized measurements across clip walks,
// including a second walk of the same clip, where the reference may
// match frame 0 exactly and fuse it. Every Result must still equal
// the reference walk.
func TestDeltaSharedEngineAcrossClips(t *testing.T) {
	checkSharedEngineAcrossClips(t, true)
}

// TestFusedFramesSkipEngine: a fused frame makes no engine call — it
// neither looks up a plan nor applies Λ — yet counts as a fast-path
// frame and reports its plan as cached, as a zoned replay does. Every
// other frame runs Process exactly once.
func TestFusedFramesSkipEngine(t *testing.T) {
	reg := obs.Default()
	hits := reg.Counter("core.plan_cache_hits_total")
	misses := reg.Counter("core.plan_cache_misses_total")
	applies := reg.Histogram("core.stage.apply.seconds", nil)
	fastPath := reg.Counter("video.delta.frames_fastpath_total")
	fixtures := pipelineFixtures(t)
	for _, name := range []string{"static", "mixed"} {
		seq := fixtures[name]
		for _, workers := range []int{1, 2} {
			pol := steadyPolicy()
			pol.DeltaAnalysis, pol.Workers = true, workers
			rec := obs.NewFlightRecorder(len(seq.Frames))
			prev := obs.SetFlightRecorder(rec)
			lookups0, applies0, fast0 := hits.Value()+misses.Value(), applies.Count(), fastPath.Value()
			_, err := Process(seq, pol)
			obs.SetFlightRecorder(prev)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			fused := 0
			for _, fr := range rec.Snapshot() {
				if fr.FusedApply {
					fused++
					if !fr.PlanCached {
						t.Errorf("%s workers=%d frame %d: fused frame does not report PlanCached", name, workers, fr.Frame)
					}
				}
			}
			if fused == 0 {
				t.Fatalf("%s workers=%d: no fused frame; the fixture no longer exercises the fast path", name, workers)
			}
			ran := int64(len(seq.Frames) - fused)
			if got := hits.Value() + misses.Value() - lookups0; got != ran {
				t.Errorf("%s workers=%d: %d plan lookups, want %d (one per non-fused frame)", name, workers, got, ran)
			}
			if got := applies.Count() - applies0; got != ran {
				t.Errorf("%s workers=%d: %d apply stages, want %d (one per non-fused frame)", name, workers, got, ran)
			}
			if got := fastPath.Value() - fast0; got != int64(fused) {
				t.Errorf("%s workers=%d: fast-path counter moved by %d, want %d fused frames", name, workers, got, fused)
			}
		}
	}
}

// TestReplayChainBreaksAcrossClips: a clip whose last frame inherits
// its predecessor's range over changed pixels (a one-pixel pan the
// reuse estimator calls static) leaves frame −1 without a valid own
// range, so a next clip that starts on those pixels must search them
// rather than replay the range searched on the pan's first frame.
func TestReplayChainBreaksAcrossClips(t *testing.T) {
	pan := fuzzClip(t, 0, 1, 4)
	held, err := NewSequence(pan.Frames[1:])
	if err != nil {
		t.Fatal(err)
	}
	pol := steadyPolicy()
	pol.DeltaAnalysis = true
	pol.Engine = core.NewEngine(core.EngineOptions{Workers: 1})
	for _, seq := range []*Sequence{pan, held} {
		want, err := referenceWalk(seq, pol)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Process(seq, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-frame clip: result differs from the reference walk:\n got %+v\nwant %+v", len(seq.Frames), got, want)
		}
	}
}

// TestStaleMemoSubsystemMutation: a delta-analysis clip run twice with
// the same Subsystem pointer, the pointee's panel model changed in
// between, on one engine, must report the new model's savings. Fused
// frames copy frame −1's memoized measurement record, so keying it on
// the pointer would replay the old model's numbers.
func TestStaleMemoSubsystemMutation(t *testing.T) {
	f := darkFrame(t)
	seq, err := NewSequence([]*gray.Image{f, f, f, f})
	if err != nil {
		t.Fatal(err)
	}
	sub := power.DefaultSubsystem
	pol := Policy{
		DeltaAnalysis: true,
		Engine:        core.NewEngine(core.EngineOptions{}),
		Options:       core.Options{DynamicRange: 150, Subsystem: &sub},
	}
	if _, err := Process(seq, pol); err != nil {
		t.Fatal(err)
	}
	sub.TFT.C *= 3
	got, err := Process(seq, pol)
	if err != nil {
		t.Fatal(err)
	}
	fresh := sub
	want, err := Process(seq, Policy{Options: core.Options{DynamicRange: 150, Subsystem: &fresh}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Frames {
		if got.Frames[i].SavingPercent != want.Frames[i].SavingPercent { //hebslint:allow floateq
			t.Errorf("frame %d: saving %.4f%%, fresh run %.4f%%", i, got.Frames[i].SavingPercent, want.Frames[i].SavingPercent)
		}
	}
}

// TestClipStateEngineScoped: frame −1 belongs to the engine whose clip
// left it. A one-frame clip of engine A's last frame, run on a fresh
// engine B, starts cold: no frame fuses, and the result equals the
// reference walk.
func TestClipStateEngineScoped(t *testing.T) {
	fastPath := obs.Default().Counter("video.delta.frames_fastpath_total")
	seq := steadyClip(t)
	pol := steadyPolicy()
	pol.DeltaAnalysis = true
	pol.Engine = core.NewEngine(core.EngineOptions{Workers: 1})
	if _, err := Process(seq, pol); err != nil {
		t.Fatal(err)
	}
	last, err := NewSequence(seq.Frames[len(seq.Frames)-1:])
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceWalk(last, pol)
	if err != nil {
		t.Fatal(err)
	}
	pol.Engine = core.NewEngine(core.EngineOptions{Workers: 1})
	fast0 := fastPath.Value()
	got, err := Process(last, pol)
	if err != nil {
		t.Fatal(err)
	}
	if fused := fastPath.Value() - fast0; fused != 0 {
		t.Errorf("a fresh engine fused %d frames from another engine's frame −1", fused)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result differs from the reference walk:\n got %+v\nwant %+v", got, want)
	}
}

// TestStaleMemoCurveMutation: a caller that edits its curve in place
// between two clips on one engine must get the edited curve's ranges.
// Options.Curve is a pointer, so keying it would replay the old range:
// the classic walk's frame −1 and the zoned walk's zone skip both read
// that key.
func TestStaleMemoCurveMutation(t *testing.T) {
	img, err := sipi.Generate("lena", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewSequence([]*gray.Image{img, img})
	if err != nil {
		t.Fatal(err)
	}
	def, err := core.DefaultCurve()
	if err != nil {
		t.Fatal(err)
	}
	led, err := backlight.Parse("led:2x2")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []backlight.Backend{nil, led} {
		name := "classic"
		if b != nil {
			name = b.Name()
		}
		curve := *def
		pol := Policy{
			Backend:       b,
			DeltaAnalysis: true,
			Engine:        core.NewEngine(core.EngineOptions{Workers: 1}),
			Options:       core.Options{MaxDistortionPercent: 10, Curve: &curve},
		}
		if _, err := Process(seq, pol); err != nil {
			t.Fatal(err)
		}
		curve.Avg = curve.Worst
		got, err := Process(seq, pol)
		if err != nil {
			t.Fatal(err)
		}
		var want *Result
		if b == nil {
			want, err = referenceWalk(seq, pol)
		} else {
			fresh := pol
			fresh.Engine = core.NewEngine(core.EngineOptions{Workers: 1})
			want, err = Process(seq, fresh)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the edited curve replayed the old ranges:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
