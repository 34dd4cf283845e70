// Tiled incremental histogram analysis. Consecutive video frames are
// usually near-identical (static scenes, UI, talking heads), yet the
// pipeline pays a full 256-bin scan per frame. A FrameDelta tiles the
// frame, keeps a 64-bit checksum and a private histogram per tile, and
// on the next frame re-bins only the tiles whose checksum moved: the
// global histogram is updated by subtracting each stale tile histogram
// and adding its fresh one. Integer bin arithmetic is exact, so the
// updated global equals a from-scratch OfInto bin for bin — the
// subtract-then-add identity
//
//	H' = H − Σ_changed h_tile(old) + Σ_changed h_tile(new)
//
// holds by construction for whatever tile set is re-binned; the only
// probabilistic ingredient is "checksum equal ⇒ pixels equal", a
// 64-bit FNV-style hash over the tile's words (the same trust level as
// the engine's plan-LRU key). The changed-tile ratio doubles as a
// cheap scene-change signal for the video governor.
package histogram

import (
	"encoding/binary"
	"fmt"

	"hebs/internal/gray"
	"hebs/internal/parallel"
)

// DefaultTileSize is the tile edge used when a caller passes 0: 64×64
// tiles are small enough that UI updates and talking-head motion dirty
// only a few tiles, and large enough that the per-tile bookkeeping
// (one uint64 sum + 256 bins) stays well under the pixel data itself.
const DefaultTileSize = 64

// minDeltaFanoutTiles gates the parallel tile re-bin: below it the
// fan-out bookkeeping costs more than the few tile scans it overlaps
// (mirrors the 32K-pixel floor of the sharded kernels — a tile is at
// most tileSize² pixels, so 8 tiles of 64×64 ≈ 32K pixels).
const minDeltaFanoutTiles = 8

// tileBins is one tile's private histogram. Counts fit easily: a tile
// holds at most tileSize² ≤ 2³² pixels for any sane tile size.
type tileBins [Levels]int32

// FrameDelta is the incremental-analysis state for one frame geometry:
// per-tile checksums and histograms of the reference frame (the last
// frame observed) plus the running global histogram. The zero value is
// not valid — use NewFrameDelta. A FrameDelta is not safe for
// concurrent Update calls; the video scheduler owns one per clip walk
// (pooled across walks).
type FrameDelta struct {
	w, h     int
	tile     int
	tilesX   int
	tilesY   int
	sums     []uint64   // reference checksum per tile
	bins     []tileBins // reference histogram per tile
	fresh    []tileBins // scratch: re-binned tiles of the incoming frame
	dirty    []bool     // scratch: which tiles changed this Update
	global   Histogram  // running histogram of the reference frame
	primed   bool
	rebinned int // tiles re-binned by the last Update
}

// NewFrameDelta returns delta state for w×h frames tiled at tileSize
// (0 selects DefaultTileSize).
func NewFrameDelta(w, h, tileSize int) (*FrameDelta, error) {
	d := &FrameDelta{}
	if err := d.Configure(w, h, tileSize); err != nil {
		return nil, err
	}
	return d, nil
}

// Configure (re)shapes the state for w×h frames at tileSize and
// clears it: the next Update re-bins every tile. Reusing a pooled
// FrameDelta across clips goes through Matches/Configure.
func (d *FrameDelta) Configure(w, h, tileSize int) error {
	if tileSize == 0 {
		tileSize = DefaultTileSize
	}
	if w <= 0 || h <= 0 {
		return fmt.Errorf("histogram: FrameDelta with non-positive geometry %dx%d", w, h)
	}
	if tileSize < 8 {
		return fmt.Errorf("histogram: tile size %d below minimum 8", tileSize)
	}
	d.w, d.h, d.tile = w, h, tileSize
	d.tilesX = (w + tileSize - 1) / tileSize
	d.tilesY = (h + tileSize - 1) / tileSize
	n := d.tilesX * d.tilesY
	if cap(d.sums) < n {
		d.sums = make([]uint64, n)
		d.bins = make([]tileBins, n)
		d.fresh = make([]tileBins, n)
		d.dirty = make([]bool, n)
	}
	d.sums = d.sums[:n]
	d.bins = d.bins[:n]
	d.fresh = d.fresh[:n]
	d.dirty = d.dirty[:n]
	d.Invalidate()
	return nil
}

// Matches reports whether the state is shaped for w×h frames at
// tileSize (0 meaning DefaultTileSize).
func (d *FrameDelta) Matches(w, h, tileSize int) bool {
	if tileSize == 0 {
		tileSize = DefaultTileSize
	}
	return d.w == w && d.h == h && d.tile == tileSize
}

// Invalidate drops the reference frame: the next Update re-bins every
// tile (the geometry configuration is kept).
func (d *FrameDelta) Invalidate() {
	d.primed = false
	d.rebinned = 0
	d.global.Reset()
}

// Primed reports whether a reference frame has been observed.
func (d *FrameDelta) Primed() bool { return d.primed }

// Tiles returns the tile count of the configured geometry.
func (d *FrameDelta) Tiles() int { return d.tilesX * d.tilesY }

// TileSize returns the configured tile edge length.
func (d *FrameDelta) TileSize() int { return d.tile }

// Rebinned returns the number of tiles the last Update re-binned.
func (d *FrameDelta) Rebinned() int { return d.rebinned }

// tileRect returns the pixel bounds of tile t.
func (d *FrameDelta) tileRect(t int) (x0, y0, x1, y1 int) {
	tx, ty := t%d.tilesX, t/d.tilesX
	x0, y0 = tx*d.tile, ty*d.tile
	x1, y1 = x0+d.tile, y0+d.tile
	if x1 > d.w {
		x1 = d.w
	}
	if y1 > d.h {
		y1 = d.h
	}
	return x0, y0, x1, y1
}

// tileSum is the 64-bit tile checksum: an FNV-style fold over 8-byte
// little-endian words of each row segment, with the tail bytes of a
// row packed into one final word. Tile geometry is fixed per slot, so
// equal-sum comparisons always cover equally shaped byte sequences and
// the zero-padding of the tail word is unambiguous.
//
// Plain word-at-a-time FNV ((sum^w)*prime) is NOT enough here: the
// multiply mod 2⁶⁴ only ever carries bits upward, so a change confined
// to a word's top byte (the tile's last pixel column) stays in the top
// 8 bits of the sum through every subsequent step — an effective 8-bit
// state that the fuzzer collides in seconds. The xorshift after each
// multiply folds the high half back down so every byte position
// diffuses through the full word on the next step.
func tileSum(pix []uint8, stride, x0, y0, x1, y1 int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	sum := uint64(offset64)
	mix := func(w uint64) {
		sum = (sum ^ w) * prime64
		sum ^= sum >> 29
	}
	for y := y0; y < y1; y++ {
		row := pix[y*stride+x0 : y*stride+x1]
		i := 0
		for ; i+8 <= len(row); i += 8 {
			mix(binary.LittleEndian.Uint64(row[i:]))
		}
		if i < len(row) {
			var tail uint64
			for k, b := range row[i:] {
				tail |= uint64(b) << (8 * k)
			}
			mix(tail)
		}
	}
	// Final avalanche so the last word's high bytes also reach the low
	// bits of the reported sum.
	sum *= prime64
	sum ^= sum >> 32
	return sum
}

// scanTile re-hashes tile t of img and, when it changed (or the state
// is not primed), marks it dirty and re-bins it into d.fresh[t]. It is
// a method rather than a closure so the inline walk of UpdateShards
// allocates nothing; only the fan-out branch builds a closure.
func (d *FrameDelta) scanTile(img *gray.Image, t int, primed bool) {
	x0, y0, x1, y1 := d.tileRect(t)
	sum := tileSum(img.Pix, d.w, x0, y0, x1, y1)
	if primed && sum == d.sums[t] {
		d.dirty[t] = false
		return
	}
	d.dirty[t] = true
	d.sums[t] = sum
	d.binTile(img.Pix, t, &d.fresh[t])
}

// binTile counts tile t's pixels into out.
func (d *FrameDelta) binTile(pix []uint8, t int, out *tileBins) {
	x0, y0, x1, y1 := d.tileRect(t)
	*out = tileBins{}
	for y := y0; y < y1; y++ {
		for _, p := range pix[y*d.w+x0 : y*d.w+x1] {
			out[p]++
		}
	}
}

// Update observes img as the new reference frame: tiles are re-hashed,
// changed tiles re-binned, and the global histogram updated by the
// subtract-then-add identity. The result — exactly OfInto(img, h) bin
// for bin — is copied into h (which may be nil when the caller only
// wants the change signal). It returns the number of changed tiles and
// the total tile count; on the first Update after Configure/Invalidate
// every tile counts as changed.
//
//hebs:noalloc
func (d *FrameDelta) Update(img *gray.Image, h *Histogram) (changed, total int, err error) {
	return d.UpdateShards(img, h, 1)
}

// UpdateShards is Update with the per-tile re-hash/re-bin fanned out
// over up to `workers` goroutines (the tiles are independent; the
// subtract-then-add merge stays serial in tile order, so the result is
// identical at every worker count). workers <= 1, or a change set too
// small to amortize the spawn, runs inline.
func (d *FrameDelta) UpdateShards(img *gray.Image, h *Histogram, workers int) (changed, total int, err error) {
	if img == nil {
		return 0, 0, fmt.Errorf("histogram: FrameDelta.Update with nil image")
	}
	if img.W != d.w || img.H != d.h {
		return 0, 0, fmt.Errorf("histogram: FrameDelta geometry %dx%d does not match frame %dx%d",
			d.w, d.h, img.W, img.H)
	}
	n := d.tilesX * d.tilesY
	primed := d.primed
	if workers > 1 && n >= minDeltaFanoutTiles {
		// Tiles are disjoint: each worker writes only its tile's slots.
		parallel.Shard(n, workers, func(_, lo, hi int) {
			for t := lo; t < hi; t++ {
				d.scanTile(img, t, primed)
			}
		})
	} else {
		for t := 0; t < n; t++ {
			d.scanTile(img, t, primed)
		}
	}
	// Serial merge in tile order: subtract each stale tile histogram,
	// add the fresh one. Addition order cannot matter (integer sums),
	// but a fixed order keeps the walk deterministic for debugging.
	for t := 0; t < n; t++ {
		if !d.dirty[t] {
			continue
		}
		changed++
		stale := &d.bins[t]
		fresh := &d.fresh[t]
		if primed {
			for v := 0; v < Levels; v++ {
				d.global.Bins[v] += int(fresh[v]) - int(stale[v])
			}
		} else {
			// Unprimed state carries no reference: global was reset by
			// Configure/Invalidate and the stale bins are stale pool
			// contents — add fresh counts only.
			for v := 0; v < Levels; v++ {
				d.global.Bins[v] += int(fresh[v])
			}
		}
		*stale = *fresh
	}
	d.global.N = len(img.Pix)
	d.primed = true
	d.rebinned = changed
	if h != nil {
		*h = d.global
	}
	return changed, n, nil
}
