package quality

import (
	"errors"
	"slices"

	"hebs/internal/gray"
	"hebs/internal/transform"
)

// Recon is a reconstruction g = Φ⁻¹∘Φ read as lookup tables, so a
// metric compares an image F with g(F) without writing g(F) anywhere.
// A global transform sets LUT. A zoned frame sets Zones instead, one
// LUT per zone in row-major order, and the cut points of its zone
// columns (XCuts, from 0 to the image width) and rows (YCuts, from 0 to
// the height): pixel (x, y) with XCuts[c] ≤ x < XCuts[c+1] and
// YCuts[r] ≤ y < YCuts[r+1] reads Zones[r·(len(XCuts)−1) + c].
type Recon struct {
	LUT          *transform.LUT
	Zones        []*transform.LUT
	XCuts, YCuts []int
}

var errBadRecon = errors.New("quality: reconstruction LUTs do not tile the image")

// tiles reports whether g covers a w×h image: one LUT, or a LUT for
// each zone of non-decreasing cuts that span the width and height.
func (g *Recon) tiles(w, h int) bool {
	if g.Zones == nil {
		return g.LUT != nil
	}
	return g.LUT == nil && spans(g.XCuts, w) && spans(g.YCuts, h) &&
		len(g.Zones) == (len(g.XCuts)-1)*(len(g.YCuts)-1) && !slices.Contains(g.Zones, nil)
}

// spans reports whether cuts runs non-decreasing from 0 to n.
func spans(cuts []int, n int) bool {
	return len(cuts) >= 2 && cuts[0] == 0 && cuts[len(cuts)-1] == n && slices.IsSorted(cuts)
}

// fill writes g of image row r (src) into dst.
func (g *Recon) fill(dst, src []uint8, r int) {
	if g.LUT != nil {
		lut := g.LUT
		dst = dst[:len(src)]
		for c, p := range src {
			dst[c] = lut[p]
		}
		return
	}
	zr := 0
	for g.YCuts[zr+1] <= r {
		zr++
	}
	cols := len(g.XCuts) - 1
	for zc, lut := range g.Zones[zr*cols : (zr+1)*cols] {
		x0, x1 := g.XCuts[zc], g.XCuts[zc+1]
		d := dst[x0:x1]
		for i, p := range src[x0:x1] {
			d[i] = lut[p]
		}
	}
}

// apply materializes g(a). The window metrics never need it; the
// Gaussian-window SSIM and MS-SSIM, which filter or resample the
// reconstruction, do.
func (g Recon) apply(a *gray.Image) (*gray.Image, error) {
	if err := checkPair(a, a); err != nil {
		return nil, err
	}
	if !g.tiles(a.W, a.H) {
		return nil, errBadRecon
	}
	out := gray.New(a.W, a.H)
	for r := 0; r < a.H; r++ {
		g.fill(out.Pix[r*a.W:(r+1)*a.W], a.Pix[r*a.W:(r+1)*a.W], r)
	}
	return out, nil
}
