package video

import (
	"reflect"
	"testing"

	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/obs"
	"hebs/internal/power"
)

// checkSharedEngineAcrossClips runs several clips back to back through
// one shared engine, which carries warm pools, the plan cache and the
// reconstruction cache (and, with delta analysis on, the pooled
// deltaState) from walk to walk. Every Result must equal the reference
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

// TestDeltaSharedEngineAcrossClips: the pooled deltaState carries a
// reference frame and memoized measurements across clip walks,
// including a second walk of the same clip, where the pooled reference
// may match frame 0 exactly and fuse it. Every Result must still equal
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
// between, must report the new model's savings. The pooled delta
// state's fused frames copy a memoized measurement record, so keying
// it on the pointer would replay the old model's numbers.
func TestStaleMemoSubsystemMutation(t *testing.T) {
	f := darkFrame(t)
	seq, err := NewSequence([]*gray.Image{f, f, f, f})
	if err != nil {
		t.Fatal(err)
	}
	sub := power.DefaultSubsystem
	pol := Policy{DeltaAnalysis: true, Options: core.Options{DynamicRange: 150, Subsystem: &sub}}
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
