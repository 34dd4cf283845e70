// Package backlight abstracts the display's illumination hardware
// behind a capability-discovered Backend interface, generalizing the
// paper's single global CCFL lamp to zoned architectures. A Backend
// describes its zone geometry (1×1 for global lamps, N×M for LED
// local-dimming arrays), its per-zone power model, and its drive
// constraints (β quantization grid, per-frame slew capability); the
// pipeline layers above (core's zoned engine path, video's per-zone
// governor) are written against this interface only.
//
// Three backends ship:
//
//   - CCFL — the paper's LP064V1 two-piece lamp + quadratic TFT panel
//     (power.Subsystem) as a single global zone. This is the
//     regression anchor: driven through the interface it reproduces
//     the legacy pipeline's numbers bit for bit.
//   - LED — an N×M locally-dimmable zone array: linear per-zone drive
//     power with an idle floor, a PWM duty-quantized β grid, and the
//     shared TFT panel model.
//   - OLED — an emissive panel with no backlight at all: power is
//     proportional to displayed luminance (β times the transformed
//     frame's mean), plus a static scan/driver floor.
package backlight

import (
	"fmt"

	"hebs/internal/gray"
)

// Grid is a backend's zone geometry: Rows×Cols zones tiling the panel.
type Grid struct {
	Rows, Cols int
}

// Zones returns the zone count Rows×Cols.
func (g Grid) Zones() int { return g.Rows * g.Cols }

// ZoneRect returns zone k's pixel rectangle [x0,x1)×[y0,y1) on a w×h
// panel, in row-major zone order. Boundaries follow the integer split
// lo = i·n/parts, so the zones partition the panel exactly: every
// pixel belongs to exactly one zone and a 1×1 grid's single zone is
// the whole panel.
func (g Grid) ZoneRect(k, w, h int) (x0, y0, x1, y1 int) {
	zr, zc := k/g.Cols, k%g.Cols
	x0 = zc * w / g.Cols
	x1 = (zc + 1) * w / g.Cols
	y0 = zr * h / g.Rows
	y1 = (zr + 1) * h / g.Rows
	return x0, y0, x1, y1
}

// Content summarizes what a zone's pixels display: the quadratic
// moment sums of the normalized pixel values x = p/255. Carrying the
// raw sums (not means) is deliberate — the TFT panel model is a
// polynomial in these sums, and evaluating it from the sums in the
// legacy expression order is what makes the CCFL backend's numbers
// bit-identical to power.TFTPanel.PowerOf.
type Content struct {
	// SumLuma and SumLumaSq are Σx and Σx² over the zone's pixels.
	SumLuma, SumLumaSq float64
	// Pixels is the zone's pixel count; Total the whole panel's. A
	// global (1×1) zone has Pixels == Total.
	Pixels, Total int
}

// ContentOfRect summarizes the [x0,x1)×[y0,y1) rectangle of img as one
// zone of a panel with `total` pixels. Rows are accumulated top to
// bottom, pixels left to right, so a full-frame rectangle matches one
// row-major pass over the frame bit for bit — the accumulation order
// of power.TFTPanel.PowerOf.
func ContentOfRect(img *gray.Image, x0, y0, x1, y1, total int) Content {
	var sx, sxx float64
	for y := y0; y < y1; y++ {
		row := img.Pix[y*img.W+x0 : y*img.W+x1]
		for _, p := range row {
			x := float64(p) / 255.0
			sx += x
			sxx += x * x
		}
	}
	return Content{SumLuma: sx, SumLumaSq: sxx, Pixels: (x1 - x0) * (y1 - y0), Total: total}
}

// ZonePower is one zone's power split into its two physical sinks.
type ZonePower struct {
	// Illumination is the light-producing power: lamp drive for CCFL,
	// LED string drive for a zone array, emissive current for OLED.
	Illumination float64
	// Panel is the zone's share of the modulation-layer power (TFT
	// addressing for transmissive panels, scan/driver floor for OLED).
	Panel float64
}

// Total returns the zone's total power. The summation order
// (Illumination first) mirrors power.Subsystem.Power's pb+pt, keeping
// the CCFL backend's totals bit-identical to the legacy model.
func (p ZonePower) Total() float64 { return p.Illumination + p.Panel }

// Backend is the capability interface of an illumination architecture.
// Implementations must be safe for concurrent use: the zoned engine
// path calls ZonePower from parallel zone workers.
type Backend interface {
	// Name returns the spec-style identifier ("ccfl", "led:4x4",
	// "oled") used in CLI flags and report tables.
	Name() string
	// Grid returns the zone geometry; 1×1 means one global zone.
	Grid() Grid
	// ZonePower returns the power of one zone driven at backlight
	// factor beta ∈ [0,1] while its pixels display the given content.
	ZonePower(beta float64, c Content) (ZonePower, error)
	// QuantizeBeta rounds beta up to the backend's realizable drive
	// grid (identity for continuously dimmable hardware). Rounding up
	// — never down — means quantization can only enlarge a zone's
	// admissible range, so it never violates a distortion budget.
	QuantizeBeta(beta float64) float64
	// MaxSlew is the hardware's largest per-frame per-zone |Δβ|
	// (0 = unlimited). The video governor intersects it with the
	// policy's own slew limit.
	MaxSlew() float64
}

// validateGrid rejects degenerate zone geometries.
func validateGrid(g Grid) error {
	if g.Rows < 1 || g.Cols < 1 {
		return fmt.Errorf("backlight: grid %dx%d needs at least one zone per axis", g.Rows, g.Cols)
	}
	return nil
}
