package power

import (
	"math"
	"testing"
	"testing/quick"

	"hebs/internal/gray"
)

func TestCCFLFullPower(t *testing.T) {
	// β=1 is in the saturated region: 6.944 - 4.324 = 2.62.
	p, err := DefaultCCFL.Power(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-2.62) > 1e-9 {
		t.Errorf("P(1) = %v, want 2.62", p)
	}
	if DefaultCCFL.FullPower() != p {
		t.Error("FullPower disagrees with Power(1)")
	}
}

func TestCCFLLinearRegion(t *testing.T) {
	p, err := DefaultCCFL.Power(0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.96*0.5 - 0.2372
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("P(0.5) = %v, want %v", p, want)
	}
}

func TestCCFLKneeNearContinuous(t *testing.T) {
	// The published coefficients meet within ~2% at the knee.
	below, _ := DefaultCCFL.Power(DefaultCCFL.Cs)
	justAbove := DefaultCCFL.Asat*DefaultCCFL.Cs + DefaultCCFL.Csat
	if math.Abs(below-justAbove) > 0.05 {
		t.Errorf("model discontinuity at knee: %v vs %v", below, justAbove)
	}
}

func TestCCFLClampsNegative(t *testing.T) {
	// Below β ≈ 0.121 the linear extrapolation is negative; clamp to 0.
	p, err := DefaultCCFL.Power(0)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("P(0) = %v, want 0 (clamped)", p)
	}
}

func TestCCFLMonotone(t *testing.T) {
	prev := -1.0
	for b := 0.0; b <= 1.0001; b += 0.01 {
		beta := math.Min(b, 1)
		p, err := DefaultCCFL.Power(beta)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev-1e-12 {
			t.Fatalf("CCFL power decreased at β=%v", beta)
		}
		prev = p
	}
}

func TestCCFLDomainErrors(t *testing.T) {
	for _, b := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := DefaultCCFL.Power(b); err == nil {
			t.Errorf("Power(%v) should error", b)
		}
	}
}

func TestTFTPowerAt(t *testing.T) {
	p, err := DefaultTFT.PowerAt(0)
	if err != nil || p != 0.993 {
		t.Errorf("TFT P(0) = %v, %v; want 0.993", p, err)
	}
	p, err = DefaultTFT.PowerAt(1)
	want := 0.02449 + 0.04984 + 0.993
	if err != nil || math.Abs(p-want) > 1e-12 {
		t.Errorf("TFT P(1) = %v, want %v", p, want)
	}
	for _, x := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := DefaultTFT.PowerAt(x); err == nil {
			t.Errorf("PowerAt(%v) should error", x)
		}
	}
}

func TestTFTPowerOfUniformImage(t *testing.T) {
	m := gray.New(8, 8)
	m.Fill(255)
	p, err := DefaultTFT.PowerOf(m)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := DefaultTFT.PowerAt(1)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("PowerOf(white) = %v, want %v", p, want)
	}
	if _, err := DefaultTFT.PowerOf(nil); err == nil {
		t.Error("nil image should error")
	}
}

func TestTFTPowerOfMatchesPerPixelAverage(t *testing.T) {
	m := gray.New(16, 1)
	for i := range m.Pix {
		m.Pix[i] = uint8(i * 17)
	}
	p, err := DefaultTFT.PowerOf(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, px := range m.Pix {
		v, _ := DefaultTFT.PowerAt(float64(px) / 255)
		sum += v
	}
	if math.Abs(p-sum/16) > 1e-12 {
		t.Errorf("PowerOf = %v, per-pixel average = %v", p, sum/16)
	}
}

func TestTFTVariationIsSmall(t *testing.T) {
	// Section 5.1b: the panel-power change with transmittance is small
	// compared to the CCFL change — the premise that backlight dimming
	// dominates. Check the model reflects that: < 10% swing.
	lo, _ := DefaultTFT.PowerAt(0)
	hi, _ := DefaultTFT.PowerAt(1)
	if (hi-lo)/lo > 0.10 {
		t.Errorf("TFT power swing %v-%v too large for the paper's premise", lo, hi)
	}
}

func TestSubsystemPowerAdds(t *testing.T) {
	m := gray.New(4, 4)
	m.Fill(128)
	total, err := DefaultSubsystem.Power(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := DefaultCCFL.Power(0.5)
	pt, _ := DefaultTFT.PowerOf(m)
	if math.Abs(total-(pb+pt)) > 1e-12 {
		t.Errorf("subsystem power %v != %v + %v", total, pb, pt)
	}
}

func TestSavingPercentIdentityIsZero(t *testing.T) {
	m := gray.New(8, 8)
	m.Fill(100)
	s, err := DefaultSubsystem.SavingPercent(m, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s) > 1e-9 {
		t.Errorf("saving at β=1 same image = %v, want 0", s)
	}
}

func TestSavingPercentGrowsAsBetaFalls(t *testing.T) {
	m := gray.New(8, 8)
	m.Fill(100)
	prev := -1.0
	for _, beta := range []float64{0.9, 0.7, 0.5, 0.3} {
		s, err := DefaultSubsystem.SavingPercent(m, m, beta)
		if err != nil {
			t.Fatal(err)
		}
		if s <= prev {
			t.Errorf("saving at β=%v is %v, want > %v", beta, s, prev)
		}
		prev = s
	}
}

func TestSavingMatchesPaperBands(t *testing.T) {
	// Calibration anchor from Figure 8: dynamic range 220 (β≈0.863)
	// gives ~25-30% saving; dynamic range 100 (β≈0.392) gives ~42-61%.
	m := gray.New(64, 64)
	for i := range m.Pix {
		m.Pix[i] = uint8(i % 256)
	}
	beta220, _ := BetaForRange(220, 256)
	s220, err := DefaultSubsystem.SavingPercent(m, m, beta220)
	if err != nil {
		t.Fatal(err)
	}
	if s220 < 20 || s220 > 35 {
		t.Errorf("saving at R=220 = %v%%, paper band 25-30%%", s220)
	}
	beta100, _ := BetaForRange(100, 256)
	s100, err := DefaultSubsystem.SavingPercent(m, m, beta100)
	if err != nil {
		t.Fatal(err)
	}
	if s100 < 40 || s100 > 65 {
		t.Errorf("saving at R=100 = %v%%, paper band 42-61%%", s100)
	}
}

func TestSystemSavingPercent(t *testing.T) {
	s, err := SmartBadgeActive.SystemSavingPercent(15)
	if err != nil {
		t.Fatal(err)
	}
	// 15% display saving at a 28.6% display share: ~4.3% system — the
	// same arithmetic behind the paper's "3% in active mode" claim (the
	// paper's slightly lower figure reflects converter overheads).
	if math.Abs(s-4.29) > 0.01 {
		t.Errorf("system saving = %v%%, want ~4.29%%", s)
	}
	standby := SystemModel{DisplayShare: 0.50}
	if s2, _ := standby.SystemSavingPercent(15); s2 <= s {
		t.Error("standby (50% share) should convert more saving than active")
	}
}

func TestSystemSavingValidation(t *testing.T) {
	bad := SystemModel{DisplayShare: 0}
	if _, err := bad.SystemSavingPercent(10); err == nil {
		t.Error("zero share should error")
	}
	bad = SystemModel{DisplayShare: 1.2}
	if _, err := bad.SystemSavingPercent(10); err == nil {
		t.Error("share > 1 should error")
	}
	if _, err := SmartBadgeActive.SystemSavingPercent(150); err == nil {
		t.Error("saving > 100% should error")
	}
	if _, err := SmartBadgeActive.SystemSavingPercent(math.NaN()); err == nil {
		t.Error("NaN saving should error")
	}
}

func TestBetaForRange(t *testing.T) {
	b, err := BetaForRange(255, 256)
	if err != nil || b != 1 {
		t.Errorf("BetaForRange(255) = %v, %v; want 1", b, err)
	}
	b, err = BetaForRange(51, 256)
	if err != nil || math.Abs(b-0.2) > 1e-12 {
		t.Errorf("BetaForRange(51) = %v, want 0.2", b)
	}
	for _, r := range []int{0, -1, 256} {
		if _, err := BetaForRange(r, 256); err == nil {
			t.Errorf("BetaForRange(%d) should error", r)
		}
	}
	if _, err := BetaForRange(1, 1); err == nil {
		t.Error("levels < 2 should error")
	}
}

func TestRangeForBetaRoundTrip(t *testing.T) {
	f := func(raw uint8) bool {
		r := int(raw)
		if r < 1 {
			r = 1
		}
		beta, err := BetaForRange(r, 256)
		if err != nil {
			return false
		}
		back, err := RangeForBeta(beta, 256)
		return err == nil && back == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeForBetaErrors(t *testing.T) {
	for _, b := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := RangeForBeta(b, 256); err == nil {
			t.Errorf("RangeForBeta(%v) should error", b)
		}
	}
	if _, err := RangeForBeta(0.5, 1); err == nil {
		t.Error("levels < 2 should error")
	}
	r, err := RangeForBeta(0.001, 256)
	if err != nil || r != 1 {
		t.Errorf("tiny beta range = %d, %v; want 1", r, err)
	}
}
