// Liquid-crystal electro-optic models. Section 2 idealizes the cell as
// linear — "the pixel value transmittance t(X) is a linear function of
// the grayscale voltage v(X)" — which holds only because the reference
// ladder is designed to linearize the cell's actual S-shaped
// voltage-transmittance curve. Modeling the real curve shows *why* the
// ladder needs multiple taps: between taps the driver interpolates in
// voltage space, so any cell nonlinearity bends the realized grayscale
// ramp, and more taps (or taps placed by PLC where the curvature is)
// shrink that error.
package driver

import (
	"fmt"
	"math"
)

// LCModel maps normalized cell voltage (0..1 of Vdd) to transmittance
// (0..1) and back. Implementations must be strictly monotone
// increasing with Transmittance(0) = 0 and Transmittance(1) = 1
// (normally-black convention; a normally-white panel is the mirror).
type LCModel interface {
	// Transmittance returns t(v) for v in [0,1].
	Transmittance(v float64) float64
	// Voltage returns the v achieving transmittance t (the inverse).
	Voltage(t float64) float64
	// Name identifies the model in reports.
	Name() string
}

// LinearLC is the idealized cell of Section 2: t(v) = v.
type LinearLC struct{}

// Transmittance implements LCModel.
func (LinearLC) Transmittance(v float64) float64 { return clamp01(v) }

// Voltage implements LCModel.
func (LinearLC) Voltage(t float64) float64 { return clamp01(t) }

// Name implements LCModel.
func (LinearLC) Name() string { return "linear" }

// GammaLC models a power-law cell: t(v) = v^Gamma. Gamma around 2.2
// resembles the luminance response displays are calibrated against.
type GammaLC struct {
	Gamma float64
}

// NewGammaLC validates the exponent.
func NewGammaLC(gamma float64) (GammaLC, error) {
	if math.IsNaN(gamma) || gamma <= 0 {
		return GammaLC{}, fmt.Errorf("driver: gamma %v must be positive", gamma)
	}
	return GammaLC{Gamma: gamma}, nil
}

// Transmittance implements LCModel.
func (g GammaLC) Transmittance(v float64) float64 {
	return math.Pow(clamp01(v), g.Gamma)
}

// Voltage implements LCModel.
func (g GammaLC) Voltage(t float64) float64 {
	return math.Pow(clamp01(t), 1/g.Gamma)
}

// Name implements LCModel.
func (g GammaLC) Name() string { return fmt.Sprintf("gamma(%.2g)", g.Gamma) }

// SCurveLC models the sigmoid electro-optic response of a twisted
// nematic cell: a logistic curve in v, rescaled so t(0)=0 and t(1)=1.
// Steepness controls how abrupt the threshold region is (typical cells
// are steep: 6–12).
type SCurveLC struct {
	Steepness float64
}

// NewSCurveLC validates the steepness.
func NewSCurveLC(steepness float64) (SCurveLC, error) {
	if math.IsNaN(steepness) || steepness <= 0 {
		return SCurveLC{}, fmt.Errorf("driver: steepness %v must be positive", steepness)
	}
	return SCurveLC{Steepness: steepness}, nil
}

func (s SCurveLC) raw(v float64) float64 {
	return 1 / (1 + math.Exp(-s.Steepness*(v-0.5)))
}

// Transmittance implements LCModel.
func (s SCurveLC) Transmittance(v float64) float64 {
	v = clamp01(v)
	lo, hi := s.raw(0), s.raw(1)
	return (s.raw(v) - lo) / (hi - lo)
}

// Voltage implements LCModel.
func (s SCurveLC) Voltage(t float64) float64 {
	t = clamp01(t)
	lo, hi := s.raw(0), s.raw(1)
	y := lo + t*(hi-lo)
	// Invert the logistic: v = 0.5 − ln(1/y − 1)/k.
	return clamp01(0.5 - math.Log(1/y-1)/s.Steepness)
}

// Name implements LCModel.
func (s SCurveLC) Name() string { return fmt.Sprintf("s-curve(%.2g)", s.Steepness) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// lcOf returns the config's cell model, defaulting to the idealized
// linear cell.
func (c Config) lcOf() LCModel {
	if c.LC == nil {
		return LinearLC{}
	}
	return c.LC
}
