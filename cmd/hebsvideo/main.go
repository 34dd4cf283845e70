// Command hebsvideo runs per-frame HEBS over a synthetic video clip
// with the temporal backlight policy and reports the β schedule,
// flicker metrics and energy on the simulated LCD subsystem — the
// evaluation for the paper's future-work direction of video backlight
// scaling.
//
// Usage:
//
//	hebsvideo [-clip pan|fade|cut|mixed] [-frames N] [-budget PCT]
//	          [-maxstep F] [-cutdetect] [-size N] [-delta]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/obs"
	"hebs/internal/report"
	"hebs/internal/sipi"
	"hebs/internal/video"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hebsvideo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("hebsvideo", flag.ContinueOnError)
	fs.SetOutput(out)
	clipKind := fs.String("clip", "mixed", "clip type: pan, fade, cut or mixed")
	frames := fs.Int("frames", 12, "frame count for pan/fade clips")
	budget := fs.Float64("budget", 10, "per-frame distortion budget in percent")
	maxStep := fs.Float64("maxstep", 0.04, "maximum per-frame dimming step (0 disables smoothing)")
	cutDetect := fs.Bool("cutdetect", true, "use histogram scene-cut detection for snapping")
	reuse := fs.Float64("reuse", 0, "static-scene reuse threshold in EMD levels (0 disables)")
	delta := fs.Bool("delta", false, "incremental tiled histogram analysis with the fused static-frame fast path (classic walk; zoned backends always replay unchanged zones)")
	size := fs.Int("size", 96, "frame edge length")
	workers := fs.Int("workers", 1, "worker goroutines for the clip scheduler (0 = all CPUs, 1 = inline, no goroutines)")
	backendSpec := fs.String("backend", "", "backlight backend: ccfl (classic pipeline), led:RxC or oled (per-zone walk)")
	timeline := fs.Bool("timeline", false, "print the per-frame span timeline (stage durations)")
	diag := obs.AddCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*budget > 0) { // also rejects NaN
		return fmt.Errorf("budget must be positive, got %v", *budget)
	}
	if err := diag.Start(); err != nil {
		return err
	}
	defer func() {
		if stopErr := diag.Stop(); stopErr != nil && err == nil {
			err = stopErr
		}
	}()
	var col *obs.Collector
	if *timeline {
		col = diag.Collector()
	}

	clip, err := buildClip(*clipKind, *frames, *size)
	if err != nil {
		return err
	}
	if !(*reuse >= 0) { // also rejects NaN
		return fmt.Errorf("-reuse must be non-negative, got %v", *reuse)
	}
	// The CLI convention maps 0 to "all CPUs"; the policy's own zero
	// value means inline, which the flag expresses as 1 (the default).
	pw := *workers
	if pw == 0 {
		pw = -1
	}
	pol := video.Policy{
		MaxStep:        *maxStep,
		ReuseThreshold: *reuse,
		DeltaAnalysis:  *delta,
		Workers:        pw,
		Options:        core.Options{MaxDistortionPercent: *budget, ExactSearch: true},
	}
	zoned := false
	if *backendSpec != "" {
		b, err := backlight.Parse(*backendSpec)
		if err != nil {
			return err
		}
		_, ccfl := b.(*backlight.CCFL)
		zoned = !ccfl
		if zoned && *reuse > 0 {
			return fmt.Errorf("-reuse applies only to the classic walk, not -backend %s", b.Name())
		}
		pol.Backend = b
	}
	// SIGINT cancels the clip between frames; the frames finished so
	// far are still reported (a second signal kills the process via
	// the restored default handler).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var res *video.Result
	if *cutDetect {
		res, err = video.ProcessWithCutDetectionContext(ctx, clip, pol, 0)
	} else {
		res, err = video.ProcessContext(ctx, clip, pol)
	}
	interrupted := false
	if err != nil {
		if !errors.Is(err, context.Canceled) || res == nil {
			return err
		}
		interrupted = true
		err = nil
	}

	fmt.Fprintf(out, "clip %q: %d frames of %dx%d, budget %.0f%%, maxstep %.3f, cutdetect %v\n\n",
		*clipKind, len(clip.Frames), *size, *size, *budget, *maxStep, *cutDetect)

	// Zone columns are appended only on the zoned walk, so a -backend
	// ccfl run stays byte-identical to a run without the flag.
	header := []string{"frame", "target_beta", "applied_beta", "range", "distortion_pct", "saving_pct"}
	if zoned {
		header = append(header, "zones", "beta_spread")
	}
	tb := report.NewTable(header...)
	for i, f := range res.Frames {
		row := []string{report.I(i), report.F(f.TargetBeta, 3), report.F(f.Beta, 3),
			report.I(f.Range), report.F(f.Distortion, 2), report.F(f.SavingPercent, 1)}
		if zoned {
			row = append(row, report.I(f.Zones), report.F(f.ZoneBetaSpread, 3))
		}
		tb.MustAddRow(row...)
	}
	if err := tb.WriteText(out); err != nil {
		return err
	}
	if zoned {
		fmt.Fprintf(out, "\nbackend:       %s\n", pol.Backend.Name())
	}
	fmt.Fprintf(out, "\nmean saving:   %.1f%%\n", res.MeanSaving)
	fmt.Fprintf(out, "flicker:       mean |Δβ| %.4f, max |Δβ| %.4f\n",
		res.MeanAbsDeltaBeta, res.MaxAbsDeltaBeta)
	if interrupted {
		fmt.Fprintf(out, "interrupted:   %d of %d frames processed before cancellation\n",
			len(res.Frames), len(clip.Frames))
	}

	cuts, err := video.DetectCuts(clip, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "detected cuts: %v\n", cuts)

	if *timeline {
		if err := printTimeline(out, col); err != nil {
			return err
		}
	}
	return nil
}

// timelineStages are the pipeline stages broken out per frame, in
// Figure 4 order.
var timelineStages = []string{
	"range_select", "histogram", "equalize", "plc", "driver",
	"apply", "distortion", "power",
}

// printTimeline renders the per-frame span timeline: one row per
// video.frame span with its total duration and the time spent in each
// pipeline stage beneath it (summed over the frame's subtree — a
// slew-limited frame runs the pipeline twice), so flicker-policy
// decisions are attributable to their cost.
func printTimeline(out io.Writer, col *obs.Collector) error {
	children := col.Children()
	var frames []obs.SpanData
	for _, spans := range children {
		for _, s := range spans {
			if s.Name == "video.frame" {
				frames = append(frames, s)
			}
		}
	}
	sort.Slice(frames, func(i, j int) bool {
		fi, _ := frames[i].Attrs["frame"].(int)
		fj, _ := frames[j].Attrs["frame"].(int)
		return fi < fj
	})
	fmt.Fprintf(out, "\nper-frame span timeline (µs per stage):\n")
	header := append([]string{"frame", "total_us", "runs"}, timelineStages...)
	tb := report.NewTable(header...)
	for _, f := range frames {
		perStage := map[string]float64{}
		runs := 0
		var walk func(id uint64)
		walk = func(id uint64) {
			for _, s := range children[id] {
				if name, ok := strings.CutPrefix(s.Name, "stage."); ok {
					perStage[name] += float64(s.Duration.Microseconds())
				}
				if s.Name == "core.Process" {
					runs++
				}
				walk(s.ID)
			}
		}
		walk(f.ID)
		idx, _ := f.Attrs["frame"].(int)
		row := []string{
			report.I(idx),
			report.F(float64(f.Duration.Microseconds()), 0),
			report.I(runs),
		}
		for _, st := range timelineStages {
			row = append(row, report.F(perStage[st], 0))
		}
		tb.MustAddRow(row...)
	}
	return tb.WriteText(out)
}

// buildClip assembles the requested synthetic sequence.
func buildClip(kind string, frames, size int) (*video.Sequence, error) {
	if frames < 2 {
		return nil, fmt.Errorf("need at least 2 frames, got %d", frames)
	}
	gen := func(name string) (*gray.Image, error) {
		return sipi.Generate(name, size, size)
	}
	switch kind {
	case "pan":
		base, err := sipi.Generate("autumn", size*2, size)
		if err != nil {
			return nil, err
		}
		return video.Pan(base, size, size, frames, size/8+1)
	case "fade":
		a, err := gen("splash")
		if err != nil {
			return nil, err
		}
		b, err := gen("sail")
		if err != nil {
			return nil, err
		}
		return video.Fade(a, b, frames)
	case "cut":
		a, err := gen("splash")
		if err != nil {
			return nil, err
		}
		b, err := gen("sail")
		if err != nil {
			return nil, err
		}
		half := frames / 2
		if half < 1 {
			half = 1
		}
		mk := func(img *gray.Image, n int) []*gray.Image {
			out := make([]*gray.Image, n)
			for i := range out {
				out[i] = img
			}
			return out
		}
		s1, err := video.NewSequence(mk(a, half))
		if err != nil {
			return nil, err
		}
		s2, err := video.NewSequence(mk(b, frames-half))
		if err != nil {
			return nil, err
		}
		return video.Cut(s1, s2)
	case "mixed":
		pan, err := buildClip("pan", frames/3+2, size)
		if err != nil {
			return nil, err
		}
		fade, err := buildClip("fade", frames/3+2, size)
		if err != nil {
			return nil, err
		}
		cut, err := buildClip("cut", frames/3+2, size)
		if err != nil {
			return nil, err
		}
		seq, err := video.Cut(pan, fade)
		if err != nil {
			return nil, err
		}
		return video.Cut(seq, cut)
	default:
		return nil, fmt.Errorf("unknown clip kind %q", kind)
	}
}
