// Package lcd simulates the digital LCD subsystem of Figure 1 of the
// paper: video controller + frame buffer feeding an LCD controller
// whose source drivers are programmed through the PLRD, a TFT panel,
// and a CCFL backlight behind a DC-AC converter. It is the execution
// substrate the HEBS experiments run on — frames go in, displayed
// luminance images and energy accounting come out.
//
// The simulator keeps the hardware split of the paper: the frame
// buffer holds *original* pixel codes; the pixel transformation Λ is
// realized in the voltage domain by the reference driver, so applying
// HEBS costs no per-pixel work in the video path (the advantage over
// ref. [4]'s pixel-by-pixel manipulation).
package lcd

import (
	"errors"
	"fmt"

	"hebs/internal/driver"
	"hebs/internal/gray"
	"hebs/internal/power"
	"hebs/internal/transform"
)

// Config describes a display instance.
type Config struct {
	// Width, Height are the panel dimensions in pixels.
	Width, Height int
	// RefreshHz is the panel refresh rate (frames are held and
	// re-energized at this rate). Default 60.
	RefreshHz float64
	// ConverterEfficiency is the DC-AC converter efficiency feeding the
	// CCFL (0 < η <= 1). Default 0.85, a typical royer-converter figure.
	ConverterEfficiency float64
	// SourceLineCapacitance is the capacitance of one source bus line in
	// farads; row-to-row voltage swings on the source lines dissipate
	// C·ΔV² per transition (the panel's addressing energy). Default
	// 100 pF; 0 disables addressing-energy accounting.
	SourceLineCapacitance float64
	// Driver is the PLRD configuration.
	Driver driver.Config
	// Power is the electrical model of lamp and panel.
	Power power.Subsystem
}

// DefaultConfig is a QVGA panel with the paper's LP064V1 power model.
func DefaultConfig() Config {
	return Config{
		Width:                 320,
		Height:                240,
		RefreshHz:             60,
		ConverterEfficiency:   0.85,
		SourceLineCapacitance: 100e-12,
		Driver:                driver.DefaultConfig,
		Power:                 power.DefaultSubsystem,
	}
}

func (c Config) validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("lcd: bad panel size %dx%d", c.Width, c.Height)
	}
	if c.RefreshHz <= 0 {
		return fmt.Errorf("lcd: bad refresh rate %v", c.RefreshHz)
	}
	if !(c.ConverterEfficiency > 0 && c.ConverterEfficiency <= 1) {
		return fmt.Errorf("lcd: converter efficiency %v outside (0,1]", c.ConverterEfficiency)
	}
	if c.SourceLineCapacitance < 0 {
		return fmt.Errorf("lcd: negative source-line capacitance %v", c.SourceLineCapacitance)
	}
	return nil
}

// Display is a running LCD subsystem.
type Display struct {
	cfg         Config
	frameBuffer *gray.Image
	program     *driver.Program // its Beta is the backlight factor

	frames      int
	totalEnergy float64 // joules
	busBytes    int64   // video-interface traffic
}

// New powers up a display with full backlight and an identity transfer
// function.
func New(cfg Config) (*Display, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Display{
		cfg:         cfg,
		frameBuffer: gray.New(cfg.Width, cfg.Height),
	}
	prog, err := driver.ProgramHierarchical(cfg.Driver,
		[]transform.Point{{X: 0, Y: 0}, {X: transform.Levels - 1, Y: transform.Levels - 1}}, 1)
	if err != nil {
		return nil, err
	}
	d.program = prog
	return d, nil
}

// LoadProgram installs a PLRD program and sets the backlight to the
// program's scaling factor — the atomic reconfiguration step at a
// frame boundary.
func (d *Display) LoadProgram(prog *driver.Program) error {
	if prog == nil {
		return errors.New("lcd: nil program")
	}
	if !(prog.Beta > 0 && prog.Beta <= 1) {
		return fmt.Errorf("lcd: program backlight factor %v outside (0,1]", prog.Beta)
	}
	d.program = prog
	return nil
}

// Beta returns the current backlight scaling factor, set by the last
// LoadProgram (1 at power-up).
func (d *Display) Beta() float64 { return d.program.Beta }

// Frame is the result of displaying one frame for one refresh period.
type Frame struct {
	// Luminance is the perceived image: β · t(code), scaled to 8 bits.
	Luminance *gray.Image
	// BacklightPower is the CCFL drive power including converter loss.
	BacklightPower float64
	// PanelPower is the TFT array power at the driven transmittances.
	PanelPower float64
	// AddressingPower is the dynamic power of the source-line scan:
	// the row-to-row voltage swings on the column bus lines.
	AddressingPower float64
	// TotalPower is their sum (watts, in the paper's normalized units).
	TotalPower float64
	// Energy is TotalPower over one refresh period (joules).
	Energy float64
}

// ShowFrame writes a frame through the video controller into the frame
// buffer and energizes the panel for one refresh period.
func (d *Display) ShowFrame(img *gray.Image) (*Frame, error) {
	if img == nil {
		return nil, errors.New("lcd: nil frame")
	}
	if img.W != d.cfg.Width || img.H != d.cfg.Height {
		return nil, fmt.Errorf("lcd: frame %dx%d does not fit panel %dx%d",
			img.W, img.H, d.cfg.Width, d.cfg.Height)
	}
	copy(d.frameBuffer.Pix, img.Pix)
	d.busBytes += int64(len(img.Pix))
	return d.refresh()
}

func (d *Display) refresh() (*Frame, error) {
	lut, err := d.program.DisplayedLUT()
	if err != nil {
		return nil, err
	}
	lum := lut.Apply(d.frameBuffer)

	illum, err := d.cfg.Power.CCFL.Power(d.program.Beta)
	if err != nil {
		return nil, err
	}
	blPower := illum / d.cfg.ConverterEfficiency

	// Panel power at the driven transmittance of each code: average
	// P_TFT(t(code)) weighted by the frame's histogram (single pass
	// over 256 codes instead of per-pixel math).
	var hist [transform.Levels]int
	for _, p := range d.frameBuffer.Pix {
		hist[p]++
	}
	panel := 0.0
	n := float64(len(d.frameBuffer.Pix))
	for code, count := range hist {
		if count == 0 {
			continue
		}
		tr, err := d.program.TransmittanceAt(code)
		if err != nil {
			return nil, err
		}
		pw, err := d.cfg.Power.TFT.PowerAt(tr)
		if err != nil {
			return nil, err
		}
		panel += pw * float64(count) / n
	}

	addressing, err := d.addressingPower()
	if err != nil {
		return nil, err
	}

	total := blPower + panel + addressing
	energy := total / d.cfg.RefreshHz
	d.frames++
	d.totalEnergy += energy
	return &Frame{
		Luminance:       lum,
		BacklightPower:  blPower,
		PanelPower:      panel,
		AddressingPower: addressing,
		TotalPower:      total,
		Energy:          energy,
	}, nil
}

// addressingPower computes the source-driver scan power: during each
// refresh every row is addressed in turn, and each of the W source
// lines swings from the previous row's grayscale voltage to the new
// one, dissipating C·ΔV² per swing.
func (d *Display) addressingPower() (float64, error) {
	if d.cfg.SourceLineCapacitance == 0 {
		return 0, nil
	}
	volts, err := d.program.VoltageTable()
	if err != nil {
		return 0, err
	}
	w, h := d.cfg.Width, d.cfg.Height
	energy := 0.0
	for y := 1; y < h; y++ {
		prevRow := (y - 1) * w
		row := y * w
		for x := 0; x < w; x++ {
			dv := volts[d.frameBuffer.Pix[row+x]] - volts[d.frameBuffer.Pix[prevRow+x]]
			energy += dv * dv
		}
	}
	return d.cfg.SourceLineCapacitance * energy * d.cfg.RefreshHz, nil
}

// Stats summarizes the display session so far.
type Stats struct {
	Frames      int
	Seconds     float64
	TotalEnergy float64 // joules
	AvgPower    float64 // watts
	BusBytes    int64
}

// Stats returns the session counters.
func (d *Display) Stats() Stats {
	s := Stats{
		Frames:      d.frames,
		Seconds:     float64(d.frames) / d.cfg.RefreshHz,
		TotalEnergy: d.totalEnergy,
		BusBytes:    d.busBytes,
	}
	if s.Seconds > 0 {
		s.AvgPower = s.TotalEnergy / s.Seconds
	}
	return s
}
