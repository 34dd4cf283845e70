// Pooled incremental-analysis state for the classic clip walk. A
// deltaState is frame −1 of the next clip: the previous clip's last
// frame as the tile reference (histogram.FrameDelta), plus the two
// memoizations a frame identical to it replays:
//
//   - ownRange: its own admissible range — skipping the exact range
//     search, the most expensive per-frame stage.
//   - meas: its FrameResult at the applied range — a fused frame whose
//     copy source is frame −1 copies it and makes no engine call.
//
// Both replays are exact: range search and measurement are pure
// functions of (pixels, options), the byte comparison with the
// reference frame certifies the pixels, and the options are
// fingerprinted by core.KeyFor. Tile state itself is a pure function
// of pixels and carries across clips unconditionally; the memoizations
// are dropped whenever the fingerprint moves (or an uncomparable
// option like a custom Metric func is in play).
package video

import (
	"sync"

	"hebs/internal/core"
	"hebs/internal/histogram"
)

// deltaState is the pooled per-walk incremental-analysis state.
type deltaState struct {
	delta     *histogram.FrameDelta
	ownRange  int
	ownValid  bool
	meas      FrameResult
	measValid bool
	key       core.OptionsKey
	keyOK     bool
}

var deltaStatePool = sync.Pool{New: func() any { return new(deltaState) }}

// acquireDelta draws pooled state shaped for w×h frames at
// histogram.DefaultTileSize. Tile state survives pool round
// trips whenever the geometry matches — a clip starting where the
// previous one left off re-bins nothing. The range/measurement
// memoizations additionally require an identical options fingerprint.
func acquireDelta(w, h int, opts core.Options) (*deltaState, error) {
	ds := deltaStatePool.Get().(*deltaState)
	if ds.delta == nil {
		var err error
		ds.delta, err = histogram.NewFrameDelta(w, h, 0)
		if err != nil {
			deltaStatePool.Put(ds)
			return nil, err
		}
	} else if !ds.delta.Matches(w, h, 0) {
		if err := ds.delta.Configure(w, h, 0); err != nil {
			deltaStatePool.Put(ds)
			return nil, err
		}
		ds.ownValid, ds.measValid = false, false
	}
	key, comparable := core.KeyFor(opts)
	if !comparable || !ds.keyOK || key != ds.key {
		ds.ownValid, ds.measValid = false, false
	}
	ds.key, ds.keyOK = key, comparable
	return ds, nil
}

// releaseDelta returns the state to the pool.
func releaseDelta(ds *deltaState) {
	if ds != nil {
		deltaStatePool.Put(ds)
	}
}
