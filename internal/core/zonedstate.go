// Pooled cross-call state for the zoned walk. Recomputing every zone
// from scratch each frame is almost always wasted work for video —
// local-dimming content changes a few zones per frame while the rest
// are byte-identical — so ProcessZoned keeps, per (geometry,
// option-key) state object on the Engine's zoned free list:
//
//   - a reference copy of each zone's pixels, its histogram and its
//     analyzed admissible range. A zone whose current pixels compare
//     byte-equal to the reference copy skips the copy, the range
//     search and the re-bin outright. The zone grid IS the delta tile
//     grid here — one tile per zone, exactly aligned, so a zone's
//     unchanged-ness certifies its whole analysis.
//   - a measurement memo: the zone's plan, distortion, and both power
//     readings, keyed by the memoized (range, β) pair. When the pixels
//     are unchanged AND phase B lands on the same operating point, the
//     zone replays its entire phase C — the plan is definitionally the
//     one planFor would return (same histogram, same range, same
//     options), so the replay is certified bit-identical, the same
//     trust model as the plan cache's exact-match contract.
//   - a frame-level distortion memo: when every zone replays, the
//     whole-frame reconstruction is identical too, so the frame-wide
//     metric is replayed instead of walking the frame again.
//
// Certification is always by full byte comparison against state-owned
// buffers — never a checksum, never engine-pooled memory that another
// call may have recycled. The state seals only after a walk completes
// (capture-and-invalidate, like video's frame −1): a cancelled or
// failed run leaves the state unsealed and the next acquire discards
// every memo. Options that cannot be fingerprinted (KeyFor's ok=false)
// or a backend whose dynamic type is not comparable keep nothing across
// calls: every zone re-analyzes and re-measures, which is the memo-off
// oracle the equivalence tests run.
// Under -tags hebscheck every replaying zone re-solves its plan
// uncached and asserts it equals the memoized one (checkReplay).
package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"

	"hebs/internal/backlight"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/invariant"
	"hebs/internal/obs"
	"hebs/internal/transform"
)

// zoneSlot is one zone's persistent state across calls.
type zoneSlot struct {
	x0, y0, x1, y1 int
	img            *gray.Image         // state-owned reference copy of the zone's pixels
	hist           histogram.Histogram // histogram of img
	r              int                 // analyzed admissible range of img
	valid          bool                // img/hist/r describe a sealed run's pixels

	// Measurement memo — the zone's phase-C record, replayable when the
	// pixels are unchanged and phase B lands on (mRng, mBeta) again.
	mValid bool
	mRng   int
	mBeta  float64
	plan   *Plan
	res    ZoneResult
	before backlight.ZonePower
}

// zonedState is the pooled cross-call state of the zoned walk.
type zonedState struct {
	w, h       int
	rows, cols int
	slots      []zoneSlot
	// key and backend fingerprint the call the memos belong to: the
	// options (KeyFor) plus the backend, compared by identity (all
	// shipped backends are pointers). β-field inputs are absent from
	// both: phase B always recomputes, and the measurement memo keys on
	// its output (range, β) instead.
	key     OptionsKey
	backend backlight.Backend
	keyOK   bool

	// sealed marks a state whose memos survived a completed walk; it is
	// cleared on acquire and restored only after success, so a
	// cancelled or failed run can never leak half-written memos.
	sealed bool

	// Frame-level distortion memo: AchievedDistortion of the last
	// sealed non-replay run, replayable when every zone replays (the
	// frame is then pixel- and plan-identical to that run).
	frameValid bool
	frameDist  float64

	// The frame metric's zone LUTs (set in phase C) and grid cuts.
	recons       []*transform.LUT
	xcuts, ycuts []int

	// Phase scratch reused across calls.
	rs        []int
	targets   []float64
	betas     []float64
	rngs      []int
	befores   []backlight.ZonePower
	unchanged []bool
}

// grow returns s resized to n elements, reallocating only on capacity
// growth. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// configure resizes the state to a (frame, grid) geometry, allocating
// per-zone buffers for each slot's own rectangle.
func (st *zonedState) configure(w, h int, g backlight.Grid) {
	st.w, st.h, st.rows, st.cols = w, h, g.Rows, g.Cols
	zones := g.Zones()
	st.slots = grow(st.slots, zones)
	st.xcuts, st.ycuts = grow(st.xcuts, g.Cols+1), grow(st.ycuts, g.Rows+1)
	for k := range st.slots {
		z := &st.slots[k]
		x0, y0, x1, y1 := g.ZoneRect(k, w, h)
		z.x0, z.y0, z.x1, z.y1 = x0, y0, x1, y1
		st.xcuts[k%g.Cols+1], st.ycuts[k/g.Cols+1] = x1, y1
		if z.img == nil || z.img.W != x1-x0 || z.img.H != y1-y0 {
			z.img = gray.New(x1-x0, y1-y0)
		}
	}
	st.xcuts[0], st.ycuts[0] = 0, 0
	st.recons = grow(st.recons, zones)
	st.rs = grow(st.rs, zones)
	st.targets = grow(st.targets, zones)
	st.betas = grow(st.betas, zones)
	st.rngs = grow(st.rngs, zones)
	st.befores = grow(st.befores, zones)
	st.unchanged = grow(st.unchanged, zones)
}

// invalidate drops every cross-call memo (geometry and buffers stay).
func (st *zonedState) invalidate() {
	for k := range st.slots {
		z := &st.slots[k]
		z.valid = false
		z.mValid = false
		z.plan = nil
	}
	st.frameValid = false
}

// acquireZonedState takes the most recently released state off the
// engine's free list (a new one when it is empty) and revalidates it
// against the call's geometry, options and backend — the same
// fingerprint-and-revalidate pattern as video's frame −1. Any mismatch
// (or an unsealed state from an aborted run) keeps the buffers but
// drops the memos. Options KeyFor cannot fingerprint, or a backend
// whose dynamic type is not comparable, keep no memo across calls.
func (e *Engine) acquireZonedState(img *gray.Image, g backlight.Grid, opts Options, b backlight.Backend) *zonedState {
	key, keyOK := KeyFor(opts)
	keyOK = keyOK && reflect.TypeOf(b).Comparable()
	st := e.zonedFree.take()
	if st == nil {
		st = &zonedState{}
	}
	if st.w != img.W || st.h != img.H || st.rows != g.Rows || st.cols != g.Cols || len(st.slots) != g.Zones() {
		st.configure(img.W, img.H, g)
		st.invalidate()
	} else if !st.sealed || !st.keyOK || !keyOK || key != st.key || b != st.backend {
		st.invalidate()
	}
	st.sealed = false
	st.key, st.backend, st.keyOK = key, b, keyOK
	return st
}

// equalRect reports whether src's rectangle with top-left (x0,y0) and
// ref's geometry is byte-identical to ref — the certification that
// lets a zone keep its analysis and replay its program.
//
//hebs:noalloc
func equalRect(src, ref *gray.Image, x0, y0 int) bool {
	for y := 0; y < ref.H; y++ {
		lo := (y0+y)*src.W + x0
		if !bytes.Equal(src.Pix[lo:lo+ref.W], ref.Pix[y*ref.W:(y+1)*ref.W]) {
			return false
		}
	}
	return true
}

// canReplay reports whether slot z can replay its phase-C memo at this
// frame's operating point.
//
//hebs:noalloc
func (st *zonedState) canReplay(k int) bool {
	z := &st.slots[k]
	//hebslint:allow floateq a replay requires exactly the memoized drive level
	return st.unchanged[k] && z.mValid && z.plan != nil && z.mRng == st.rngs[k] && z.mBeta == st.betas[k]
}

// checkReplay is the hebscheck self-check of a replaying zone: it
// re-solves the zone's plan uncached from the slot histogram at this
// frame's range and asserts that the memoized plan it is about to
// replay has the same Λ, range and β. A solve error (cancellation) is
// returned, not asserted.
func (st *zonedState) checkReplay(ctx context.Context, sp *obs.Span, k, segments int, opts Options) error {
	z := &st.slots[k]
	csp := sp.Child("core.zone_replay_check")
	defer csp.End()
	plan, err := planFromHistogramCtx(ctx, csp, &z.hist, st.rngs[k], segments, nil, opts.Equalizer)
	if err != nil {
		return fmt.Errorf("core: zone %d replay check: %w", k, err)
	}
	//hebslint:allow floateq a certified replay reproduces the solve bit for bit
	same := *plan.Lambda == *z.plan.Lambda && plan.Range == z.plan.Range && plan.Beta == z.plan.Beta
	invariant.Assert(same, "core: zone %d replayed plan (R=%d β=%v) differs from its uncached re-solve (R=%d β=%v)",
		k, z.plan.Range, z.plan.Beta, plan.Range, plan.Beta)
	return nil
}
