// Package power implements the LCD-subsystem power models of Section
// 5.1 of the paper: the two-piece linear CCFL backlight model (Eq. 11)
// and the quadratic a-Si:H TFT panel model (Eq. 12), both with the
// coefficients the authors measured on the LG Philips LP064V1 display.
// These are the exact regression models the paper's power-saving
// numbers are computed from, so reproducing them reproduces the paper's
// power accounting.
package power

import (
	"fmt"
	"math"

	"hebs/internal/gray"
)

// CCFL models the backlight lamp: driver power as a two-piece linear
// function of the backlight illumination factor β ∈ [0,1] (Eq. 11).
// Below the saturation knee Cs the tube is efficient (shallow slope);
// above it, increased temperature and pressure degrade the conversion
// of drive power into visible light, so power rises steeply.
type CCFL struct {
	Cs   float64 // saturation knee in β
	Alin float64 // linear-region slope
	Clin float64 // linear-region intercept
	Asat float64 // saturation-region slope
	Csat float64 // saturation-region intercept
}

// DefaultCCFL holds the LP064V1 coefficients reported in Section 5.1a.
var DefaultCCFL = CCFL{
	Cs:   0.8234,
	Alin: 1.9600,
	Clin: -0.2372,
	Asat: 6.9440,
	Csat: -4.3240,
}

// Power returns the CCFL driver power (normalized watts) needed to
// produce backlight factor β. The piecewise model extrapolates to
// negative power for very small β; physically the lamp is off, so the
// result is clamped at 0.
func (c CCFL) Power(beta float64) (float64, error) {
	if math.IsNaN(beta) || beta < 0 || beta > 1 {
		return 0, fmt.Errorf("power: backlight factor %v outside [0,1]", beta)
	}
	var p float64
	if beta <= c.Cs {
		p = c.Alin*beta + c.Clin
	} else {
		p = c.Asat*beta + c.Csat
	}
	if p < 0 {
		p = 0
	}
	return p, nil
}

// FullPower returns the power at maximum illumination (β = 1).
func (c CCFL) FullPower() float64 {
	p, _ := c.Power(1)
	return p
}

// TFTPanel models the active-matrix panel: per-pixel power as a
// quadratic in the normalized pixel value x ∈ [0,1] (Eq. 12),
// P(x) = A·x² + B·x + C.
type TFTPanel struct {
	A, B, C float64
}

// DefaultTFT holds the LP064V1 regression coefficients of Section 5.1b.
var DefaultTFT = TFTPanel{A: 0.02449, B: 0.04984, C: 0.993}

// PowerAt returns the panel power for a single normalized pixel value.
func (t TFTPanel) PowerAt(x float64) (float64, error) {
	if math.IsNaN(x) || x < 0 || x > 1 {
		return 0, fmt.Errorf("power: pixel value %v outside [0,1]", x)
	}
	return t.A*x*x + t.B*x + t.C, nil
}

// PowerOf returns the panel power averaged over the pixels of an
// image — the grand quadratic moment of the pixel distribution.
func (t TFTPanel) PowerOf(img *gray.Image) (float64, error) {
	if img == nil {
		return 0, fmt.Errorf("power: nil image")
	}
	// Use the histogram-free single pass: sum x and x² directly.
	var sx, sxx float64
	for _, p := range img.Pix {
		x := float64(p) / 255.0
		sx += x
		sxx += x * x
	}
	return t.PowerShare(sx, sxx, len(img.Pix), len(img.Pix))
}

// PowerShare returns the panel-power contribution of a pixel subset:
// sx = Σx and sxx = Σx² accumulated over `pixels` pixels, normalized
// against the panel's `total` pixel count. Summing the shares of a
// partition of the panel yields the whole-panel mean, which is how the
// zoned backlight backends charge each zone its exact slice of TFT
// power. With the subset equal to the whole panel (pixels == total)
// the quadratic and linear terms are the legacy PowerOf expression
// verbatim and the constant term is scaled by exactly 1.0, so the
// result is bit-identical to the pre-refactor code — the regression
// anchor the backend-equivalence suite relies on.
func (t TFTPanel) PowerShare(sx, sxx float64, pixels, total int) (float64, error) {
	if total <= 0 || pixels < 0 || pixels > total {
		return 0, fmt.Errorf("power: pixel subset %d of %d", pixels, total)
	}
	if math.IsNaN(sx) || math.IsNaN(sxx) || sx < 0 || sxx < 0 {
		return 0, fmt.Errorf("power: bad moment sums (%v, %v)", sx, sxx)
	}
	n := float64(total)
	return t.A*sxx/n + t.B*sx/n + t.C*(float64(pixels)/n), nil
}

// Subsystem combines the backlight and panel into the total LCD power
// P(F′, β) the DBS problem minimizes.
type Subsystem struct {
	CCFL CCFL
	TFT  TFTPanel
}

// DefaultSubsystem is the LP064V1 subsystem used throughout the
// reproduction.
var DefaultSubsystem = Subsystem{CCFL: DefaultCCFL, TFT: DefaultTFT}

// Power returns the total subsystem power while displaying img with
// backlight factor beta.
func (s Subsystem) Power(img *gray.Image, beta float64) (float64, error) {
	pb, err := s.CCFL.Power(beta)
	if err != nil {
		return 0, err
	}
	pt, err := s.TFT.PowerOf(img)
	if err != nil {
		return 0, err
	}
	return pb + pt, nil
}

// SavingPercent returns the power saving (in percent) of displaying
// transformed at backlight factor beta relative to displaying orig at
// full backlight — the quantity reported in Table 1 and Figure 8.
func (s Subsystem) SavingPercent(orig, transformed *gray.Image, beta float64) (float64, error) {
	base, err := s.Power(orig, 1)
	if err != nil {
		return 0, err
	}
	scaled, err := s.Power(transformed, beta)
	if err != nil {
		return 0, err
	}
	if base <= 0 {
		return 0, fmt.Errorf("power: non-positive baseline power %v", base)
	}
	return 100 * (1 - scaled/base), nil
}

// SystemModel places the display inside a whole battery-powered
// device, following the SmartBadge breakdown quoted in Section 1: the
// display subsystem consumes a fixed share of total system power in
// each operating mode (28.6% active, 28.6% idle, 50% standby).
type SystemModel struct {
	// DisplayShare is the display's fraction of total system power in
	// the operating mode of interest (0, 1].
	DisplayShare float64
}

// SmartBadgeActive is the SmartBadge active-mode share from ref. [1]
// as quoted in the paper's introduction.
var SmartBadgeActive = SystemModel{DisplayShare: 0.286}

// SystemSavingPercent converts a display-subsystem power saving into a
// whole-system saving: a d% display saving shrinks total power by
// d% × DisplayShare. The paper's Section 1 claim — HEBS's additional
// 15% display saving is "a total additional system power saving of 3%
// in active mode" — is this computation with a ~21% effective display
// share after converter losses.
func (m SystemModel) SystemSavingPercent(displaySavingPercent float64) (float64, error) {
	if math.IsNaN(m.DisplayShare) || m.DisplayShare <= 0 || m.DisplayShare > 1 {
		return 0, fmt.Errorf("power: display share %v outside (0,1]", m.DisplayShare)
	}
	if math.IsNaN(displaySavingPercent) || displaySavingPercent < -100 || displaySavingPercent > 100 {
		return 0, fmt.Errorf("power: display saving %v%% implausible", displaySavingPercent)
	}
	return displaySavingPercent * m.DisplayShare, nil
}

// BetaForRange returns the minimum backlight factor that preserves peak
// luminance for a transformed image whose pixel values occupy [0, R]
// out of [0, G−1]: the contrast compensation spreads R levels onto the
// full panel swing, so the backlight only needs β = R/(G−1). This is
// the link between step 1 of HEBS (choosing R) and the dimming factor.
func BetaForRange(r, levels int) (float64, error) {
	if levels < 2 {
		return 0, fmt.Errorf("power: bad level count %d", levels)
	}
	if r < 1 || r > levels-1 {
		return 0, fmt.Errorf("power: dynamic range %d outside [1,%d]", r, levels-1)
	}
	return float64(r) / float64(levels-1), nil
}

// RangeForBeta inverts BetaForRange, returning the largest dynamic
// range displayable without luminance loss at backlight factor beta.
func RangeForBeta(beta float64, levels int) (int, error) {
	if levels < 2 {
		return 0, fmt.Errorf("power: bad level count %d", levels)
	}
	if math.IsNaN(beta) || beta <= 0 || beta > 1 {
		return 0, fmt.Errorf("power: backlight factor %v outside (0,1]", beta)
	}
	r := int(math.Floor(beta * float64(levels-1)))
	if r < 1 {
		r = 1
	}
	return r, nil
}
