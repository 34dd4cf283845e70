// Package video extends HEBS from single images to frame sequences,
// the direction the paper's conclusion points to for future work.
// Per-frame backlight scaling is free power, but a backlight factor
// that jumps between consecutive frames is visible as flicker; the
// temporal policy here rate-limits β between frames (slew-rate
// hysteresis) and the package provides a flicker metric plus synthetic
// sequence generators (pans, fades, scene cuts) to exercise it.
package video

import (
	"context"
	"errors"
	"fmt"
	"image"
	"math"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/gray"
)

// Sequence is an ordered list of equally-sized frames.
type Sequence struct {
	Frames []*gray.Image
}

// NewSequence validates frame sizes and wraps them.
func NewSequence(frames []*gray.Image) (*Sequence, error) {
	if len(frames) == 0 {
		return nil, errors.New("video: empty sequence")
	}
	for i, f := range frames {
		if f == nil {
			return nil, fmt.Errorf("video: nil frame %d", i)
		}
	}
	w, h := frames[0].W, frames[0].H
	for i, f := range frames {
		if f.W != w || f.H != h {
			return nil, fmt.Errorf("video: frame %d is %dx%d, want %dx%d", i, f.W, f.H, w, h)
		}
	}
	return &Sequence{Frames: frames}, nil
}

// Pan generates a sequence by sliding a viewport across a larger base
// image, dx pixels per frame (wrapping around).
func Pan(base *gray.Image, viewW, viewH, frames, dx int) (*Sequence, error) {
	if base == nil {
		return nil, errors.New("video: nil base image")
	}
	if viewW <= 0 || viewH <= 0 || viewW > base.W || viewH > base.H {
		return nil, fmt.Errorf("video: viewport %dx%d does not fit base %dx%d",
			viewW, viewH, base.W, base.H)
	}
	if frames <= 0 {
		return nil, fmt.Errorf("video: need positive frame count, got %d", frames)
	}
	out := make([]*gray.Image, frames)
	for i := range out {
		x0 := (i * dx) % (base.W - viewW + 1)
		if x0 < 0 {
			x0 += base.W - viewW + 1
		}
		sub, err := base.SubImage(image.Rect(x0, 0, x0+viewW, viewH))
		if err != nil {
			return nil, err
		}
		out[i] = sub
	}
	return NewSequence(out)
}

// Fade generates a linear cross-fade from a to b over the given number
// of frames (inclusive of both endpoints).
func Fade(a, b *gray.Image, frames int) (*Sequence, error) {
	if a == nil || b == nil {
		return nil, errors.New("video: nil endpoint image")
	}
	if a.W != b.W || a.H != b.H {
		return nil, errors.New("video: endpoint sizes differ")
	}
	if frames < 2 {
		return nil, fmt.Errorf("video: fade needs >= 2 frames, got %d", frames)
	}
	out := make([]*gray.Image, frames)
	for i := range out {
		t := float64(i) / float64(frames-1)
		f := gray.New(a.W, a.H)
		for p := range f.Pix {
			v := (1-t)*float64(a.Pix[p]) + t*float64(b.Pix[p])
			f.Pix[p] = uint8(math.Round(v))
		}
		out[i] = f
	}
	return NewSequence(out)
}

// Cut concatenates two sequences (a scene cut).
func Cut(a, b *Sequence) (*Sequence, error) {
	if a == nil || b == nil {
		return nil, errors.New("video: nil sequence")
	}
	return NewSequence(append(append([]*gray.Image{}, a.Frames...), b.Frames...))
}

// Policy configures temporal backlight control.
type Policy struct {
	// MaxStep is the largest allowed |Δβ| between consecutive frames
	// (slew-rate limit). 0 disables smoothing. A cut larger than
	// CutThreshold bypasses the limit (scene changes mask flicker).
	MaxStep float64
	// CutThreshold: when the target β changes by more than this, the
	// policy treats it as a scene cut and snaps immediately. 0 disables
	// snapping.
	CutThreshold float64
	// ReuseThreshold enables the static-scene optimization: when the
	// earth-mover's distance between the running histogram estimate and
	// the new frame's histogram is below this many levels, the previous
	// frame's admissible range is reused instead of re-running the
	// per-frame range search (the expensive step). 0 disables reuse.
	ReuseThreshold float64
	// DeltaAnalysis enables tiled incremental histogram analysis: each
	// frame is compared byte for byte with the previous one in 64×64
	// tiles (histogram.DefaultTileSize), only changed tiles are
	// re-binned (subtract-stale/add-fresh keeps the global histogram
	// exactly equal to a from-scratch scan), and a frame whose pixels
	// did not change at all may be fused: it makes no engine call and
	// copies the memoized β, distortion and power numbers.
	// DeltaAnalysis only decides which frames skip work; a frame that
	// does run is computed exactly as with it off, so outputs are
	// byte-identical; see DESIGN.md "Incremental delta analysis".
	// It applies to the classic walk only: the zoned walk always skips
	// unchanged zones and replays identical frames inside the engine.
	DeltaAnalysis bool
	// Backend selects the backlight architecture. nil and the global
	// CCFL backend walk the classic per-frame pipeline (the CCFL
	// backend resolves Options.Subsystem from its lamp model, keeping
	// outputs byte-identical to the nil default); a zoned backend (LED
	// array) or a non-subsystem power model (OLED) routes the clip
	// through the per-zone walk, where MaxStep/CutThreshold govern each
	// zone's β track. ReuseThreshold (the histogram-estimator reuse) and
	// DeltaAnalysis apply only to the classic walk.
	Backend backlight.Backend
	// HEBS options applied per frame. DynamicRange/budget semantics as
	// in core.Options.
	Options core.Options
	// Engine, when non-nil, runs the per-frame pipeline through the
	// given engine so its frame-buffer pools and its clip state — the
	// per-clip scratch and, with DeltaAnalysis, frame −1 — persist
	// across clips: the steady-state zero-allocation path. Nil means a
	// private engine per Process call, so each call starts cold
	// (pooling still amortizes across the clip's frames). Either way
	// plans come from the process-wide plan cache unless the engine was
	// built with caching disabled.
	Engine *core.Engine
	// Workers bounds the parallelism of the clip scheduler, which runs
	// every classic clip as analyze → govern → apply: 0 or 1 (the
	// default) runs each phase inline on the caller's goroutine, n > 1
	// fans the per-frame range searches and Apply/measure work out over
	// up to n goroutines, and a negative value selects GOMAXPROCS. The
	// order-dependent statistics, reuse and β-slew/cut governor passes
	// are always serial.
	// Outputs — frames, β sequences, driver programs — are
	// byte-identical at every setting; see DESIGN.md "Parallel
	// execution".
	Workers int
	// frameOffset shifts the frame indices reported on observability
	// spans; ProcessWithCutDetectionContext sets it so scene-local
	// runs still report clip-global frame numbers.
	frameOffset int
}

// FrameResult records one processed frame.
type FrameResult struct {
	// TargetBeta is the per-frame HEBS optimum.
	TargetBeta float64
	// Beta is the applied (smoothed) backlight factor.
	Beta float64
	// Range is the dynamic range corresponding to Beta.
	Range int
	// SavingPercent is the subsystem power saving for this frame.
	SavingPercent float64
	// Distortion is the achieved distortion at the applied range.
	Distortion float64
	// Zones is the backlight zone count that produced this frame (0 on
	// the classic global walk). On the zoned walk TargetBeta and Beta
	// are the zone means and Range is the largest zone range.
	Zones int
	// ZoneBetaSpread is max−min of the applied per-zone β field.
	ZoneBetaSpread float64
}

// Result is a processed sequence.
type Result struct {
	Frames []FrameResult
	// MeanSaving is the average per-frame power saving.
	MeanSaving float64
	// Flicker metrics over the applied β track.
	MeanAbsDeltaBeta float64
	MaxAbsDeltaBeta  float64
}

// Process runs per-frame HEBS with the temporal policy. The per-frame
// target β comes from the frame's own HEBS solution; the applied β is
// a fast-attack / slow-decay track: increases (brightening) are applied
// immediately because a β below the frame's target would violate its
// distortion budget, while decreases (dimming) are slew-rate limited by
// MaxStep — a gradual dim is far less visible than a gradual brighten
// is harmful. A target drop larger than CutThreshold is treated as a
// scene cut and snaps immediately (the cut masks the flicker).
func Process(seq *Sequence, pol Policy) (*Result, error) {
	return ProcessContext(context.Background(), seq, pol)
}

// ProcessContext is Process with cooperative cancellation: the context
// is checked between frames of every scheduler phase (and inside the
// pipeline stages), and a cancellation mid-clip returns the contiguous
// prefix of frames that finished Apply — already aggregated, and empty
// when the cancellation lands before the first Apply — together with
// ctx's error, so a partial timeline can still be reported. Pipeline
// frame buffers are drawn from (and returned to) the policy's engine,
// so a steady-state clip allocates almost nothing per frame.
func ProcessContext(ctx context.Context, seq *Sequence, pol Policy) (*Result, error) {
	if seq == nil || len(seq.Frames) == 0 {
		return nil, errors.New("video: empty sequence")
	}
	// !(x >= 0) also rejects NaN, which would silently disable the feature.
	if !(pol.MaxStep >= 0) || !(pol.CutThreshold >= 0) || !(pol.ReuseThreshold >= 0) {
		return nil, fmt.Errorf("video: negative or NaN policy parameters %+v", pol)
	}
	if pol.Backend != nil {
		if c, ok := pol.Backend.(*backlight.CCFL); ok {
			// The global lamp walks the classic pipeline: resolve the
			// power subsystem from the backend and fall through, so the
			// outputs stay byte-identical to a run without a backend.
			if pol.Options.Subsystem == nil {
				sub := c.Subsystem()
				pol.Options.Subsystem = &sub
			}
		} else {
			return processZonedClip(ctx, seq, pol)
		}
	}
	return processPipelined(ctx, seq, pol, policyWorkers(pol.Workers, len(seq.Frames)))
}

// aggregate computes the clip-level summary — mean saving and the
// flicker statistics of the applied β track — over the completed
// frames and publishes the clip gauges. The scheduler and the
// scene-cut wrapper both reduce through this one helper, over frames
// in index order.
func (r *Result) aggregate() {
	var sumSave, sumDelta, maxDelta float64
	for i, f := range r.Frames {
		sumSave += f.SavingPercent
		if i > 0 {
			d := math.Abs(f.Beta - r.Frames[i-1].Beta)
			sumDelta += d
			if d > maxDelta {
				maxDelta = d
			}
		}
	}
	if len(r.Frames) > 0 {
		r.MeanSaving = sumSave / float64(len(r.Frames))
	}
	if len(r.Frames) > 1 {
		r.MeanAbsDeltaBeta = sumDelta / float64(len(r.Frames)-1)
	}
	r.MaxAbsDeltaBeta = maxDelta
	gMeanSaving.Set(r.MeanSaving)
	gMeanAbsDelta.Set(r.MeanAbsDeltaBeta)
	gMaxAbsDelta.Set(r.MaxAbsDeltaBeta)
}
