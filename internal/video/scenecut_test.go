package video

import (
	"context"
	"testing"

	"hebs/internal/core"
	"hebs/internal/gray"
)

// cuttyClip builds: 4 dark frames | cut | 4 bright frames | cut | 4 dark.
func cuttyClip(t *testing.T) *Sequence {
	t.Helper()
	dark := darkFrame(t)
	bright := brightFrame(t)
	var frames []*gray.Image
	for i := 0; i < 4; i++ {
		frames = append(frames, dark)
	}
	for i := 0; i < 4; i++ {
		frames = append(frames, bright)
	}
	for i := 0; i < 4; i++ {
		frames = append(frames, dark)
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestDetectCutsFindsSceneChanges(t *testing.T) {
	cuts, err := DetectCuts(cuttyClip(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 2 {
		t.Fatalf("cuts = %v, want exactly [4 8]", cuts)
	}
	if cuts[0] != 4 || cuts[1] != 8 {
		t.Errorf("cuts = %v, want [4 8]", cuts)
	}
}

func TestDetectCutsQuietOnStaticScene(t *testing.T) {
	frames := make([]*gray.Image, 8)
	base := darkFrame(t)
	for i := range frames {
		frames[i] = base
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := DetectCuts(seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 {
		t.Errorf("static scene produced cuts: %v", cuts)
	}
}

func TestDetectCutsQuietOnSlowFade(t *testing.T) {
	// A 30-frame fade moves the histogram a little per frame — no cut.
	fade, err := Fade(darkFrame(t), brightFrame(t), 30)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := DetectCuts(fade, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 {
		t.Errorf("slow fade misdetected as cuts: %v", cuts)
	}
}

func TestDetectCutsThresholdScales(t *testing.T) {
	clip := cuttyClip(t)
	// An absurdly large threshold sees no cuts.
	cuts, err := DetectCuts(clip, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 {
		t.Errorf("huge threshold still found cuts: %v", cuts)
	}
	// A tiny threshold flags the real cuts (and possibly more).
	cuts, err = DetectCuts(clip, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, c := range cuts {
		found[c] = true
	}
	if !found[4] || !found[8] {
		t.Errorf("tiny threshold missed real cuts: %v", cuts)
	}
}

func TestDetectCutsValidation(t *testing.T) {
	if _, err := DetectCuts(nil, 0); err == nil {
		t.Error("nil sequence should error")
	}
}

func TestProcessWithCutDetectionSnapsAtCuts(t *testing.T) {
	clip := cuttyClip(t)
	pol := Policy{
		MaxStep: 0.01,
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	res, err := ProcessWithCutDetectionContext(context.Background(), clip, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 12 {
		t.Fatalf("frames = %d, want 12", len(res.Frames))
	}
	// At the detected cut (frame 4) β snaps straight to the new scene's
	// target despite the tight slew limit.
	if d := res.Frames[4].Beta - res.Frames[4].TargetBeta; d < -1.0/255 || d > 1.0/255 {
		t.Errorf("frame 4 did not snap: β %v vs target %v",
			res.Frames[4].Beta, res.Frames[4].TargetBeta)
	}
	// Within the dark scene (frames 8..11) dimming decays with the slew
	// limit: β decreases by at most MaxStep per frame.
	for i := 9; i < 12; i++ {
		drop := res.Frames[i-1].Beta - res.Frames[i].Beta
		if drop > pol.MaxStep+1e-9 {
			t.Errorf("frame %d: dimming step %v exceeds slew limit", i, drop)
		}
	}
}

func TestProcessWithCutDetectionMatchesProcessOnUncutClip(t *testing.T) {
	fade, err := Fade(darkFrame(t), brightFrame(t), 6)
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{
		MaxStep: 0.05,
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	a, err := Process(fade, pol)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProcessWithCutDetectionContext(context.Background(), fade, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if a.Frames[i].Beta != b.Frames[i].Beta {
			t.Errorf("frame %d: β differs without cuts: %v vs %v",
				i, a.Frames[i].Beta, b.Frames[i].Beta)
		}
	}
}

func TestProcessWithCutDetectionValidation(t *testing.T) {
	if _, err := ProcessWithCutDetectionContext(context.Background(), nil, Policy{}, 0); err == nil {
		t.Error("nil sequence should error")
	}
}
