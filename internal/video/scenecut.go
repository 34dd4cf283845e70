// Scene-change detection. The temporal policy's CutThreshold operates
// on β jumps, which conflates scene cuts with mere exposure drift; the
// detector here works directly on histogram statistics — the same
// signal the backlight controller already computes — so cuts can be
// identified before the policy decides how fast to move β.
package video

import (
	"context"
	"errors"
	"fmt"

	"hebs/internal/core"
	"hebs/internal/histogram"
	"hebs/internal/invariant"
	"hebs/internal/obs"
)

// DefaultCutDistance is the earth-mover's distance (in grayscale
// levels, on normalized histograms) above which consecutive frames are
// treated as a scene cut. Typical exposure drift moves the histogram a
// few levels per frame; cuts move it tens of levels.
const DefaultCutDistance = 20.0

// DetectCuts returns the indices of frames that start a new scene: the
// histogram EMA of the running scene is compared against each new
// frame's histogram, and an earth-mover's distance above threshold
// marks a cut (the estimator then restarts on the new scene).
// threshold <= 0 selects DefaultCutDistance. Frame 0 never counts.
func DetectCuts(seq *Sequence, threshold float64) ([]int, error) {
	if seq == nil || len(seq.Frames) == 0 {
		return nil, errors.New("video: empty sequence")
	}
	if threshold <= 0 {
		threshold = DefaultCutDistance
	}
	sp := obs.StartSpan("video.DetectCuts")
	defer sp.End()
	sp.SetInt("frames", len(seq.Frames))
	// A fairly fast EMA keeps the reference current within a scene.
	est, err := histogram.NewEstimator(0.4)
	if err != nil {
		return nil, err
	}
	var cuts []int
	for i, f := range seq.Frames {
		h := histogram.Of(f)
		if i == 0 {
			if err := est.Observe(h); err != nil {
				return nil, err
			}
			continue
		}
		d, err := est.Distance(h)
		if err != nil {
			return nil, err
		}
		if d > threshold {
			cuts = append(cuts, i)
			// Restart the scene reference.
			est, err = histogram.NewEstimator(0.4)
			if err != nil {
				return nil, err
			}
		}
		if err := est.Observe(h); err != nil {
			return nil, err
		}
	}
	sp.SetInt("cuts", len(cuts))
	mCutsFound.Add(int64(len(cuts)))
	if invariant.Enabled {
		// Frame 0 never counts as a cut and indices must be a strictly
		// increasing subset of the frame range.
		for i, c := range cuts {
			invariant.Assert(c >= 1 && c < len(seq.Frames),
				"video: cut index %d outside [1,%d)", c, len(seq.Frames))
			invariant.Assert(i == 0 || c > cuts[i-1],
				"video: cut indices not increasing: %v", cuts)
		}
	}
	return cuts, nil
}

// ProcessWithCutDetectionContext runs Process with the slew-rate
// policy, but snaps β at detected scene cuts instead of relying on a
// β-jump threshold: histogram-level cut detection fires even when the
// cut happens to land on a similar β (where the β-threshold would
// not). cutDistance <= 0 selects DefaultCutDistance. A cancellation
// mid-clip returns the frames of the scenes completed (plus the
// cancelled scene's completed prefix), aggregated, together with
// ctx's error. All scenes share one engine so frame buffers and cached
// plans carry across cuts; without Policy.Engine that engine is built
// with Policy.Workers.
func ProcessWithCutDetectionContext(ctx context.Context, seq *Sequence, pol Policy, cutDistance float64) (*Result, error) {
	if seq == nil || len(seq.Frames) == 0 {
		return nil, errors.New("video: empty sequence")
	}
	cuts, err := DetectCuts(seq, cutDistance)
	if err != nil {
		return nil, err
	}
	isCut := make(map[int]bool, len(cuts))
	for _, c := range cuts {
		isCut[c] = true
	}
	// Process scene by scene: within a scene the slew policy applies
	// with no β-threshold; at each cut the policy restarts (immediate
	// snap to the new scene's target).
	scenePol := pol
	scenePol.CutThreshold = 0
	if scenePol.Engine == nil {
		scenePol.Engine = core.NewEngine(core.EngineOptions{Workers: pol.Workers})
	}
	res := &Result{}
	start := 0
	var clipErr error
	flush := func(end int) error {
		if end <= start {
			return nil
		}
		sub, err := NewSequence(seq.Frames[start:end])
		if err != nil {
			return err
		}
		scenePol.frameOffset = start
		r, err := ProcessContext(ctx, sub, scenePol)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) && r != nil {
				res.Frames = append(res.Frames, r.Frames...)
				clipErr = cerr
				return nil
			}
			return fmt.Errorf("video: scene at frame %d: %w", start, err)
		}
		res.Frames = append(res.Frames, r.Frames...)
		return nil
	}
	for i := range seq.Frames {
		if clipErr != nil {
			break
		}
		if i > 0 && isCut[i] {
			if err := flush(i); err != nil {
				return nil, err
			}
			start = i
		}
	}
	if clipErr == nil {
		if err := flush(len(seq.Frames)); err != nil {
			return nil, err
		}
	}
	// Aggregate like Process (over the completed prefix if cancelled).
	res.aggregate()
	return res, clipErr
}
