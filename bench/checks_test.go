package main

import (
	"strings"
	"testing"

	"hebs/internal/core"
	"hebs/internal/video"
)

// Hand-built results that each break one check must each count as a
// failed op, while a valid result passes.
func TestCheckerCatchesBrokenResults(t *testing.T) {
	pol := &video.Policy{MaxStep: 0.04, CutThreshold: 0.1}
	noCut := &video.Policy{MaxStep: 0.04}
	goodStill := record{stats: core.Stats{Range: 128, Beta: 128.0 / 255, PredictedDistortion: 9}, pix: []byte{1, 2}}
	goodClip := record{frames: []video.FrameResult{
		{TargetBeta: 0.8, Beta: 0.8, Range: 204},
		{TargetBeta: 0.7, Beta: 0.76, Range: 194},
	}}
	cases := []struct {
		name   string
		rec    record
		budget float64
		pol    *video.Policy
		want   string // "" means the record must pass
	}{
		{"valid still", goodStill, 10, nil, ""},
		{"valid clip", goodClip, 10, noCut, ""},
		{"beta above 1", record{stats: core.Stats{Range: 255, Beta: 1.2}}, 10, nil, "outside (0,1]"},
		{"range below 2", record{stats: core.Stats{Range: 1, Beta: 0.5}}, 10, nil, "outside [2,255]"},
		{"beta below target", record{frames: []video.FrameResult{{TargetBeta: 0.5, Beta: 0.4, Range: 102}}}, 10, noCut, "below its target"},
		{"step over MaxStep without a cut", record{frames: []video.FrameResult{
			{TargetBeta: 0.8, Beta: 0.8, Range: 204},
			{TargetBeta: 0.75, Beta: 0.75, Range: 191},
		}}, 10, noCut, "over MaxStep"},
		{"step over MaxStep at a cut", record{frames: []video.FrameResult{
			{TargetBeta: 0.8, Beta: 0.8, Range: 204},
			{TargetBeta: 0.5, Beta: 0.5, Range: 128},
		}}, 10, pol, ""},
		{"predicted over budget", record{stats: core.Stats{Range: 128, Beta: 128.0 / 255, PredictedDistortion: 12}}, 10, nil, "over budget"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := checkRecord(c.rec, c.budget, c.pol)
			var tl tally
			tl.add("op", bad)
			if c.want == "" {
				if len(bad) > 0 || tl.failed != 0 {
					t.Fatalf("valid record flagged: %v", bad)
				}
				return
			}
			if tl.attempted != 1 || tl.failed != 1 {
				t.Fatalf("failed %d of %d, want the op counted as failed; problems %v", tl.failed, tl.attempted, bad)
			}
			if !strings.Contains(strings.Join(bad, "; "), c.want) {
				t.Fatalf("problems %v do not mention %q", bad, c.want)
			}
		})
	}
}

// An oracle mismatch in pixels, stats or frame results is caught.
func TestOracleMismatch(t *testing.T) {
	still := record{stats: core.Stats{Range: 100, Beta: 100.0 / 255}, pix: []byte{1, 2, 3}}
	clip := record{frames: []video.FrameResult{{TargetBeta: 0.5, Beta: 0.5, Range: 128}}}
	if err := sameRecord(still, still); err != nil {
		t.Fatalf("identical still: %v", err)
	}
	if err := sameRecord(clip, clip); err != nil {
		t.Fatalf("identical clip: %v", err)
	}
	pix := still
	pix.pix = []byte{1, 2, 4}
	stats := still
	stats.stats.AchievedDistortion = 1e-12
	frames := record{frames: []video.FrameResult{{TargetBeta: 0.5, Beta: 0.5, Range: 127}}}
	for name, got := range map[string]record{"pixels": pix, "stats": stats} {
		err := sameRecord(got, still)
		if err == nil {
			t.Errorf("%s mismatch not caught", name)
			continue
		}
		var tl tally
		tl.add("op", []string{err.Error()})
		if tl.failed != 1 {
			t.Errorf("%s mismatch not counted as a failure", name)
		}
	}
	if sameRecord(frames, clip) == nil {
		t.Error("frame-result mismatch not caught")
	}
}

// An op with several problems counts once, and only the first
// maxFailureMsgs messages are kept.
func TestTallyCountsOpsOnce(t *testing.T) {
	var tl tally
	tl.add("a", []string{"x", "y"})
	tl.add("b", nil)
	for i := 0; i < 20; i++ {
		tl.add("c", []string{"z"})
	}
	if tl.attempted != 22 || tl.failed != 21 {
		t.Fatalf("attempted %d failed %d, want 22 and 21", tl.attempted, tl.failed)
	}
	if len(tl.msgs) != maxFailureMsgs {
		t.Fatalf("kept %d messages, want %d", len(tl.msgs), maxFailureMsgs)
	}
}
