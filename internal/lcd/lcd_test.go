package lcd

import (
	"math"
	"testing"

	"hebs/internal/core"
	"hebs/internal/driver"
	"hebs/internal/gray"
	"hebs/internal/power"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 64, 64
	return cfg
}

func frame(t *testing.T) *gray.Image {
	t.Helper()
	img, err := sipi.Generate("lena", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.Height = -1 },
		func(c *Config) { c.RefreshHz = 0 },
		func(c *Config) { c.ConverterEfficiency = 0 },
		func(c *Config) { c.ConverterEfficiency = 1.2 },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPowerUpIdentity(t *testing.T) {
	d, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Beta() != 1 {
		t.Errorf("power-up β = %v, want 1", d.Beta())
	}
	img := frame(t)
	f, err := d.ShowFrame(img)
	if err != nil {
		t.Fatal(err)
	}
	// Identity program at β=1: luminance ≈ input codes.
	diff := 0
	for i := range img.Pix {
		d := int(f.Luminance.Pix[i]) - int(img.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > diff {
			diff = d
		}
	}
	if diff > 2 {
		t.Errorf("identity luminance off by %d levels", diff)
	}
}

func TestShowFrameValidation(t *testing.T) {
	d, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ShowFrame(nil); err == nil {
		t.Error("nil frame should error")
	}
	if _, err := d.ShowFrame(gray.New(32, 64)); err == nil {
		t.Error("wrong-size frame should error")
	}
}

func TestEnergyAccounting(t *testing.T) {
	cfg := smallConfig()
	cfg.RefreshHz = 50
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := frame(t)
	var sum float64
	for i := 0; i < 50; i++ { // one second of frames
		f, err := d.ShowFrame(img)
		if err != nil {
			t.Fatal(err)
		}
		sum += f.Energy
		if math.Abs(f.TotalPower-(f.BacklightPower+f.PanelPower+f.AddressingPower)) > 1e-12 {
			t.Fatal("power components do not add up")
		}
		if f.AddressingPower < 0 {
			t.Fatal("negative addressing power")
		}
		if math.Abs(f.Energy-f.TotalPower/50) > 1e-12 {
			t.Fatal("energy != power / refresh rate")
		}
	}
	st := d.Stats()
	if st.Frames != 50 {
		t.Errorf("frames = %d, want 50", st.Frames)
	}
	if math.Abs(st.Seconds-1) > 1e-9 {
		t.Errorf("seconds = %v, want 1", st.Seconds)
	}
	if math.Abs(st.TotalEnergy-sum) > 1e-9 {
		t.Errorf("total energy = %v, want %v", st.TotalEnergy, sum)
	}
	if math.Abs(st.AvgPower-sum) > 1e-9 { // 1 second -> avg power == energy
		t.Errorf("avg power = %v, want %v", st.AvgPower, sum)
	}
	if st.BusBytes != int64(50*64*64) {
		t.Errorf("bus bytes = %d, want %d", st.BusBytes, 50*64*64)
	}
}

func TestHEBSProgramSavesEnergy(t *testing.T) {
	img := frame(t)
	res, err := core.Process(img, core.Options{DynamicRange: 120, Driver: &driver.DefaultConfig})
	if err != nil {
		t.Fatal(err)
	}

	full, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fFull, err := full.ShowFrame(img)
	if err != nil {
		t.Fatal(err)
	}

	dimmed, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dimmed.LoadProgram(res.Program); err != nil {
		t.Fatal(err)
	}
	if dimmed.Beta() != res.Beta {
		t.Errorf("display β = %v, want %v", dimmed.Beta(), res.Beta)
	}
	fDim, err := dimmed.ShowFrame(img)
	if err != nil {
		t.Fatal(err)
	}
	saving := 1 - fDim.TotalPower/fFull.TotalPower
	if saving < 0.2 {
		t.Errorf("HEBS at R=120 saved only %.1f%% on the simulator", saving*100)
	}
	// The displayed luminance must approximate Λ(F): codes through the
	// hardware chain land near the software transform.
	want := res.Lambda.Apply(img)
	var worst int
	for i := range want.Pix {
		d := int(fDim.Luminance.Pix[i]) - int(want.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 4 {
		t.Errorf("hardware luminance deviates %d levels from Λ(F)", worst)
	}
}

func TestLoadProgramValidation(t *testing.T) {
	d, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadProgram(nil); err == nil {
		t.Error("nil program should error")
	}
}

func TestConverterLossVisible(t *testing.T) {
	img := frame(t)
	cfgLossy := smallConfig()
	cfgLossy.ConverterEfficiency = 0.5
	lossy, err := New(cfgLossy)
	if err != nil {
		t.Fatal(err)
	}
	cfgIdeal := smallConfig()
	cfgIdeal.ConverterEfficiency = 1
	ideal, err := New(cfgIdeal)
	if err != nil {
		t.Fatal(err)
	}
	fL, err := lossy.ShowFrame(img)
	if err != nil {
		t.Fatal(err)
	}
	fI, err := ideal.ShowFrame(img)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fL.BacklightPower-2*fI.BacklightPower) > 1e-9 {
		t.Errorf("50%% efficient converter should double backlight power: %v vs %v",
			fL.BacklightPower, fI.BacklightPower)
	}
	if math.Abs(fL.PanelPower-fI.PanelPower) > 1e-12 {
		t.Error("converter efficiency must not affect panel power")
	}
}

func TestAddressingPowerBehaviour(t *testing.T) {
	cfg := smallConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A constant image has zero row-to-row voltage swing.
	flat := gray.New(64, 64)
	flat.Fill(128)
	f, err := d.ShowFrame(flat)
	if err != nil {
		t.Fatal(err)
	}
	if f.AddressingPower != 0 {
		t.Errorf("constant frame addressing power = %v, want 0", f.AddressingPower)
	}
	// Horizontal stripes alternate full-swing every row: the worst case.
	stripes := gray.New(64, 64)
	for y := 0; y < 64; y++ {
		if y%2 == 1 {
			for x := 0; x < 64; x++ {
				stripes.Set(x, y, 255)
			}
		}
	}
	fs, err := d.ShowFrame(stripes)
	if err != nil {
		t.Fatal(err)
	}
	if fs.AddressingPower <= 0 {
		t.Fatal("stripe frame should dissipate addressing power")
	}
	// Analytic check: 63 row transitions × 64 columns × (3.3 V)² × C × Hz.
	want := 63 * 64 * 3.3 * 3.3 * cfg.SourceLineCapacitance * cfg.RefreshHz
	if math.Abs(fs.AddressingPower-want)/want > 0.02 {
		t.Errorf("stripe addressing power %v, want ~%v", fs.AddressingPower, want)
	}
	// Vertical stripes have identical rows: zero addressing power.
	vert := gray.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x += 2 {
			vert.Set(x, y, 255)
		}
	}
	fv, err := d.ShowFrame(vert)
	if err != nil {
		t.Fatal(err)
	}
	if fv.AddressingPower != 0 {
		t.Errorf("vertical stripes addressing power = %v, want 0", fv.AddressingPower)
	}
}

func TestAddressingPowerDisabled(t *testing.T) {
	cfg := smallConfig()
	cfg.SourceLineCapacitance = 0
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := d.ShowFrame(frame(t))
	if err != nil {
		t.Fatal(err)
	}
	if f.AddressingPower != 0 {
		t.Error("zero capacitance should disable addressing accounting")
	}
	cfg.SourceLineCapacitance = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative capacitance should be rejected")
	}
}

func TestAddressingPowerIsSmallFraction(t *testing.T) {
	// Sanity: with the default 100 pF lines, addressing power on a
	// natural image is orders of magnitude below the backlight — the
	// premise that backlight dimming is where the energy is.
	d, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := d.ShowFrame(frame(t))
	if err != nil {
		t.Fatal(err)
	}
	if f.AddressingPower > 0.01*f.BacklightPower {
		t.Errorf("addressing power %v not negligible vs backlight %v",
			f.AddressingPower, f.BacklightPower)
	}
}

func TestPanelPowerMatchesModel(t *testing.T) {
	// With an identity program at β=1 the panel transmittances equal the
	// normalized codes, so panel power must match power.TFTPanel.PowerOf
	// up to DAC quantization.
	d, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := frame(t)
	f, err := d.ShowFrame(img)
	if err != nil {
		t.Fatal(err)
	}
	want, err := power.DefaultTFT.PowerOf(img)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.PanelPower-want) > 0.001 {
		t.Errorf("panel power %v, model says %v", f.PanelPower, want)
	}
	var _ = transform.Levels
}

func BenchmarkShowFrame(b *testing.B) {
	d, err := New(smallConfig())
	if err != nil {
		b.Fatal(err)
	}
	img, err := sipi.Generate("lena", 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ShowFrame(img); err != nil {
			b.Fatal(err)
		}
	}
}
