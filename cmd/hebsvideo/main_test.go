package main

import (
	"strings"
	"testing"
)

func TestRunMixedClip(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-size", "48", "-frames", "6"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mean saving:", "flicker:", "detected cuts:", "applied_beta"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunClipKinds(t *testing.T) {
	for _, kind := range []string{"pan", "fade", "cut"} {
		var sb strings.Builder
		if err := run([]string{"-clip", kind, "-size", "48", "-frames", "4"}, &sb); err != nil {
			t.Errorf("clip %q: %v", kind, err)
		}
	}
}

func TestRunNoSmoothingNoCutDetect(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-clip", "cut", "-size", "48", "-frames", "4",
		"-maxstep", "0", "-cutdetect=false"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithReuse(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-clip", "cut", "-size", "48", "-frames", "4", "-reuse", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-clip", "bogus"},
		{"-frames", "1"},
		{"-budget", "0"},
		{"-budget", "-5"},
		{"-budget", "NaN"},
		{"-reuse", "-1"},
		{"-reuse", "NaN"},
		{"-maxstep", "NaN"},
		{"-notaflag"},
	}
	for i, args := range cases {
		var sb strings.Builder
		if err := run(append(args, "-size", "32"), &sb); err == nil {
			t.Errorf("case %d (%v) should error", i, args)
		}
	}
}

func TestBuildClipShapes(t *testing.T) {
	for _, kind := range []string{"pan", "fade", "cut", "mixed"} {
		seq, err := buildClip(kind, 6, 32)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(seq.Frames) < 2 {
			t.Errorf("%s: only %d frames", kind, len(seq.Frames))
		}
		if seq.Frames[0].W != 32 || seq.Frames[0].H != 32 {
			t.Errorf("%s: frame size %dx%d", kind, seq.Frames[0].W, seq.Frames[0].H)
		}
	}
}

func TestRunTimeline(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-clip", "fade", "-frames", "4", "-size", "32",
		"-timeline"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "per-frame span timeline") {
		t.Fatalf("timeline section missing:\n%s", out)
	}
	for _, col := range []string{"range_select", "equalize", "plc", "apply"} {
		if !strings.Contains(out, col) {
			t.Errorf("timeline missing stage column %q", col)
		}
	}
}
