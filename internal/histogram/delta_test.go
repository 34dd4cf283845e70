package histogram

import (
	"testing"

	"hebs/internal/gray"
	"hebs/internal/rng"
)

// randomImage fills a w×h image from the repo's deterministic PRNG.
func randomImage(w, h int, seed uint64) *gray.Image {
	img := gray.New(w, h)
	s := rng.New(seed)
	for i := range img.Pix {
		img.Pix[i] = uint8(s.Uint64())
	}
	return img
}

// checksumPair holds the first 16 pixels of sipi "girl" at 128² (x)
// and a rewrite of them (y) that keeps the 64-bit FNV-style checksum
// FrameDelta once certified tiles with: that fold is invertible, so the
// second word was solved for a chosen first word. Written over row 0
// of a tile at least 16 pixels wide, the pair changes the tile's bytes
// and histogram but not that checksum.
var checksumPair = [2][16]uint8{
	{0x6a, 0x6a, 0x6a, 0x69, 0x69, 0x69, 0x6a, 0x6a, 0x6a, 0x69, 0x6a, 0x6a, 0x6a, 0x6a, 0x69, 0x6b},
	{0x7a, 0x7a, 0x7a, 0x79, 0x79, 0x79, 0x7a, 0x7a, 0xc0, 0x0e, 0x89, 0xc0, 0x33, 0x6f, 0xac, 0xb7},
}

// TestDeltaMatchesScratch: across frame geometries (including edges not
// divisible by the tile size) and tile sizes, the incrementally updated
// histogram equals a from-scratch scan bin for bin — on the priming
// update, after partial dirtying, and after a rewrite that collides a
// 64-bit tile checksum (checksumPair).
func TestDeltaMatchesScratch(t *testing.T) {
	geoms := []struct{ w, h, tile int }{
		{64, 64, 0},    // exactly one default tile
		{128, 96, 64},  // ragged bottom row of tiles
		{100, 100, 32}, // ragged right and bottom
		{33, 17, 8},    // tiny frame, tiny tiles
		{256, 1, 16},   // single pixel row
	}
	for _, g := range geoms {
		d, err := NewFrameDelta(g.w, g.h, g.tile)
		if err != nil {
			t.Fatalf("%dx%d tile %d: %v", g.w, g.h, g.tile, err)
		}
		var got Histogram
		img := randomImage(g.w, g.h, uint64(g.w*1000+g.h*10+g.tile))
		changed, total, err := d.Update(img, &got)
		if err != nil {
			t.Fatal(err)
		}
		if changed != total || total != d.tilesX*d.tilesY {
			t.Fatalf("%dx%d tile %d: priming update re-binned %d/%d tiles, want all %d",
				g.w, g.h, g.tile, changed, total, d.tilesX*d.tilesY)
		}
		if want := Of(img); got != *want {
			t.Fatalf("%dx%d tile %d: primed histogram differs from scratch scan", g.w, g.h, g.tile)
		}
		// Dirty a handful of scattered pixels and update again.
		s := rng.New(uint64(g.w + g.h))
		for k := 0; k < 5; k++ {
			i := int(s.Uint64() % uint64(len(img.Pix)))
			img.Pix[i] ^= 0xA5
		}
		changed, _, err = d.Update(img, &got)
		if err != nil {
			t.Fatal(err)
		}
		if changed == 0 {
			t.Fatalf("%dx%d tile %d: dirtied frame reported no changed tiles", g.w, g.h, g.tile)
		}
		if want := Of(img); got != *want {
			t.Fatalf("%dx%d tile %d: delta-updated histogram differs from scratch scan", g.w, g.h, g.tile)
		}
		// An identical frame re-bins nothing.
		changed, _, err = d.Update(img, &got)
		if err != nil {
			t.Fatal(err)
		}
		if changed != 0 {
			t.Fatalf("%dx%d tile %d: identical frame re-binned %d tiles", g.w, g.h, g.tile, changed)
		}
		if want := Of(img); got != *want {
			t.Fatalf("%dx%d tile %d: static histogram differs from scratch scan", g.w, g.h, g.tile)
		}
		// Bytes that a checksum cannot tell apart must still re-bin.
		for k, pix := range checksumPair {
			copy(img.Pix, pix[:])
			changed, _, err = d.Update(img, &got)
			if err != nil {
				t.Fatal(err)
			}
			if k == 1 && changed == 0 {
				t.Fatalf("%dx%d tile %d: checksum-colliding rewrite re-binned no tile", g.w, g.h, g.tile)
			}
			if want := Of(img); got != *want {
				t.Fatalf("%dx%d tile %d: histogram after checksum pair %d differs from scratch scan", g.w, g.h, g.tile, k)
			}
		}
	}
}

// TestDeltaConfigureReuse: reconfiguring pooled state reshapes and
// invalidates it — the next update re-bins everything and still matches
// a scratch scan (the pooled bins must not leak into the new geometry).
func TestDeltaConfigureReuse(t *testing.T) {
	d, err := NewFrameDelta(128, 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Update(randomImage(128, 128, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Configure(96, 64, 16); err != nil {
		t.Fatal(err)
	}
	if d.primed {
		t.Fatal("Configure left the state primed")
	}
	img := randomImage(96, 64, 4)
	var got Histogram
	changed, total, err := d.Update(img, &got)
	if err != nil {
		t.Fatal(err)
	}
	if changed != total {
		t.Fatalf("post-Configure update re-binned %d/%d tiles, want all", changed, total)
	}
	if want := Of(img); got != *want {
		t.Fatal("post-Configure histogram differs from scratch scan")
	}
}

// TestDeltaErrors pins the validation surface.
func TestDeltaErrors(t *testing.T) {
	if _, err := NewFrameDelta(0, 10, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewFrameDelta(10, 10, 4); err == nil {
		t.Error("tile size below minimum accepted")
	}
	d, err := NewFrameDelta(32, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Update(nil, nil); err == nil {
		t.Error("nil image accepted")
	}
	if _, _, err := d.Update(gray.New(16, 16), nil); err == nil {
		t.Error("geometry mismatch accepted")
	}
	if !d.Matches(32, 32, 16) || d.Matches(32, 32, 8) || d.Matches(64, 32, 16) {
		t.Error("Matches misreports the configured geometry")
	}
}

// FuzzDeltaHistogram: random frame pairs with random tile dirtying —
// the delta-updated histogram must equal histogram.Of from scratch
// after every update, for arbitrary geometry/tile combinations.
func FuzzDeltaHistogram(f *testing.F) {
	f.Add(uint8(64), uint8(64), uint8(0), []byte{0, 1, 2, 3}, []byte{4, 5})
	f.Add(uint8(100), uint8(60), uint8(32), []byte("base-pixels"), []byte("dirt"))
	f.Add(uint8(16), uint8(16), uint8(8), []byte{}, []byte{0xff})
	f.Add(uint8(1), uint8(1), uint8(8), []byte{7}, []byte{9})
	f.Fuzz(func(t *testing.T, w, h, tile uint8, base, dirt []byte) {
		width, height := int(w), int(h)
		if width == 0 || height == 0 || width*height > 1<<14 {
			t.Skip()
		}
		tileSize := int(tile)
		if tileSize != 0 && tileSize < 8 {
			tileSize = 8
		}
		d, err := NewFrameDelta(width, height, tileSize)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(seed []byte) *gray.Image {
			img := gray.New(width, height)
			for i := range img.Pix {
				if len(seed) > 0 {
					img.Pix[i] = seed[i%len(seed)] + uint8(i/len(seed))
				}
			}
			return img
		}
		a := mk(base)
		var got Histogram
		if _, _, err := d.Update(a, &got); err != nil {
			t.Fatal(err)
		}
		if want := Of(a); got != *want {
			t.Fatal("primed histogram differs from scratch scan")
		}
		// Second frame: the base frame with dirt bytes XORed at positions
		// derived from the dirt slice — random partial tile damage.
		b := mk(base)
		for k, db := range dirt {
			if db == 0 {
				continue
			}
			pos := (int(db)*8191 + k*257) % len(b.Pix)
			b.Pix[pos] ^= db
		}
		changed, total, err := d.Update(b, &got)
		if err != nil {
			t.Fatal(err)
		}
		if changed > total {
			t.Fatalf("changed %d > total %d", changed, total)
		}
		if want := Of(b); got != *want {
			t.Fatal("delta-updated histogram differs from scratch scan")
		}
		// Third update with identical pixels must be a no-op.
		changed, _, err = d.Update(b, &got)
		if err != nil {
			t.Fatal(err)
		}
		if changed != 0 {
			t.Fatalf("identical frame re-binned %d tiles", changed)
		}
		if want := Of(b); got != *want {
			t.Fatal("static histogram differs from scratch scan")
		}
	})
}
