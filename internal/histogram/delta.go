// Tiled incremental histogram analysis. Consecutive video frames are
// usually near-identical (static scenes, UI, talking heads), yet the
// pipeline pays a full 256-bin scan per frame. A FrameDelta tiles the
// frame, keeps a copy of the reference frame and a private histogram
// per tile, and on the next frame re-bins only the tiles whose bytes
// differ from the reference: the global histogram is updated by
// subtracting each stale tile histogram and adding its fresh one.
// Integer bin arithmetic is exact, so the updated global equals a
// from-scratch OfInto bin for bin — the subtract-then-add identity
//
//	H' = H − Σ_changed h_tile(old) + Σ_changed h_tile(new)
//
// holds by construction for whatever tile set is re-binned. A tile is
// certified unchanged by bytes.Equal against the reference copy, never
// by a checksum, so no pixel change can go unseen (the zoned walk's
// rule as well). The changed-tile ratio doubles as a cheap
// scene-change signal for the video governor.
package histogram

import (
	"bytes"
	"errors"
	"fmt"

	"hebs/internal/gray"
)

// DefaultTileSize is the tile edge used when a caller passes 0: 64×64
// tiles are small enough that UI updates and talking-head motion dirty
// only a few tiles, and large enough that the per-tile bookkeeping
// (256 bins) stays well under the pixel data itself.
const DefaultTileSize = 64

// tileBins is one tile's private histogram. Counts fit easily: a tile
// holds at most tileSize² ≤ 2³² pixels for any sane tile size.
type tileBins [Levels]int32

// FrameDelta is the incremental-analysis state for one frame geometry:
// a copy of the reference frame (the last frame observed), its
// per-tile histograms and the running global histogram. The zero value
// is valid only after Configure; NewFrameDelta does both. A FrameDelta
// is not safe for concurrent Update calls; the video scheduler owns
// one per clip walk (pooled across walks).
type FrameDelta struct {
	w, h   int
	tile   int
	tilesX int
	tilesY int
	ref    []uint8    // reference frame pixels, row-major w×h
	bins   []tileBins // reference histogram per tile
	global Histogram  // running histogram of the reference frame
	primed bool
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
	if cap(d.bins) < n {
		d.bins = make([]tileBins, n)
	}
	if cap(d.ref) < w*h {
		d.ref = make([]uint8, w*h)
	}
	d.bins = d.bins[:n]
	d.ref = d.ref[:w*h]
	d.primed = false
	d.global.Reset()
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

// errNilDeltaImage is Update's nil-frame error, built once so the
// //hebs:noalloc guard path does not allocate.
var errNilDeltaImage = errors.New("histogram: FrameDelta.Update with nil image")

// deltaGeometryError formats Update's geometry mismatch in its own
// (never-inlined) frame so the fmt boxing does not count as an
// allocation inside the //hebs:noalloc Update.
//
//go:noinline
func deltaGeometryError(w, h, fw, fh int) error {
	return fmt.Errorf("histogram: FrameDelta geometry %dx%d does not match frame %dx%d", w, h, fw, fh)
}

// Update observes img as the new reference frame: each tile is
// compared byte for byte with the reference copy, changed tiles are
// re-binned and copied in, and the global histogram is updated by the
// subtract-then-add identity. The result — exactly OfInto(img, h) bin
// for bin — is copied into h (which may be nil when the caller only
// wants the change signal). It returns the number of changed tiles and
// the total tile count; on the first Update after Configure every tile
// counts as changed.
//
//hebs:noalloc
func (d *FrameDelta) Update(img *gray.Image, h *Histogram) (changed, total int, err error) {
	if img == nil {
		return 0, 0, errNilDeltaImage
	}
	if img.W != d.w || img.H != d.h {
		return 0, 0, deltaGeometryError(d.w, d.h, img.W, img.H)
	}
	n := d.tilesX * d.tilesY
	for t := 0; t < n; t++ {
		x0, y0, x1, y1 := d.tileRect(t)
		if d.primed && d.sameTile(img.Pix, x0, y0, x1, y1) {
			continue
		}
		changed++
		bins := &d.bins[t]
		if d.primed {
			// An unprimed state carries no reference: global was reset
			// by Configure and the tile bins are stale pool contents.
			for v, c := range bins {
				d.global.Bins[v] -= int(c)
			}
		}
		*bins = tileBins{}
		for y := y0; y < y1; y++ {
			row := img.Pix[y*d.w+x0 : y*d.w+x1]
			for _, p := range row {
				bins[p]++
			}
			copy(d.ref[y*d.w+x0:], row)
		}
		for v, c := range bins {
			d.global.Bins[v] += int(c)
		}
	}
	d.global.N = len(img.Pix)
	d.primed = true
	if h != nil {
		*h = d.global
	}
	return changed, n, nil
}

// sameTile reports whether the tile with bounds (x0,y0)–(x1,y1) of pix
// is byte-identical to the reference frame.
func (d *FrameDelta) sameTile(pix []uint8, x0, y0, x1, y1 int) bool {
	for y := y0; y < y1; y++ {
		lo, hi := y*d.w+x0, y*d.w+x1
		if !bytes.Equal(pix[lo:hi], d.ref[lo:hi]) {
			return false
		}
	}
	return true
}
