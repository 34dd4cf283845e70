package quality

import (
	"errors"
	"math"
	"sort"
	"testing"

	"hebs/internal/gray"
	"hebs/internal/rng"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// noisy returns a deterministic pseudo-natural test image.
func noisy(w, h int, seed uint64) *gray.Image {
	m := gray.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := rng.FBM(float64(x)/17, float64(y)/17, 4, seed)
			m.Set(x, y, uint8(v*255))
		}
	}
	return m
}

// ssim is the uniform-window SSIM of the pair a, b.
func ssim(a, b *gray.Image, opts UQIOptions) (float64, error) {
	s, _, err := measure(a, b, Recon{}, opts, ssimTerms)
	return s, err
}

// lutRecon returns the global reconstruction with table f.
func lutRecon(f func(uint8) uint8) Recon {
	lut := new(transform.LUT)
	for i := range lut {
		lut[i] = f(uint8(i))
	}
	return Recon{LUT: lut}
}

// mapPix returns a copy of m with f applied to every pixel.
func mapPix(m *gray.Image, f func(uint8) uint8) *gray.Image {
	out := m.Clone()
	for i, p := range out.Pix {
		out.Pix[i] = f(p)
	}
	return out
}

func TestUQIIdentical(t *testing.T) {
	m := noisy(64, 64, 3)
	q, err := UQI(m, m, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-1) > 1e-9 {
		t.Errorf("UQI(self) = %v, want 1", q)
	}
}

func TestUQIRange(t *testing.T) {
	a := noisy(64, 64, 4)
	b := noisy(64, 64, 5)
	q, err := UQI(a, b, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if q < -1-1e-9 || q > 1+1e-9 {
		t.Errorf("UQI out of [-1,1]: %v", q)
	}
	if q > 0.9 {
		t.Errorf("UQI of unrelated images = %v, want well below 1", q)
	}
}

func TestUQISymmetry(t *testing.T) {
	a := noisy(48, 48, 6)
	b := noisy(48, 48, 7)
	q1, _ := UQI(a, b, UQIOptions{})
	q2, _ := UQI(b, a, UQIOptions{})
	if math.Abs(q1-q2) > 1e-12 {
		t.Errorf("UQI not symmetric: %v vs %v", q1, q2)
	}
}

func TestUQIInvertedWorse(t *testing.T) {
	a := noisy(64, 64, 8)
	inv := mapPix(a, func(p uint8) uint8 { return 255 - p })
	qInv, _ := UQI(a, inv, UQIOptions{})
	shift := mapPix(a, func(p uint8) uint8 {
		if p > 245 {
			return 255
		}
		return p + 10
	})
	qShift, _ := UQI(a, shift, UQIOptions{})
	if qInv >= qShift {
		t.Errorf("inversion (%v) should score below small shift (%v)", qInv, qShift)
	}
	if qInv >= 0 {
		t.Errorf("inversion should have negative structure: %v", qInv)
	}
}

func TestUQIDegradesWithDistortion(t *testing.T) {
	a := noisy(64, 64, 9)
	prev := 1.0
	for _, amp := range []int{4, 16, 48} {
		b := a.Clone()
		s := rng.New(uint64(amp))
		for i := range b.Pix {
			d := s.Intn(2*amp+1) - amp
			v := int(b.Pix[i]) + d
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			b.Pix[i] = uint8(v)
		}
		q, err := UQI(a, b, UQIOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if q >= prev {
			t.Errorf("UQI did not decrease with noise amplitude %d: %v >= %v", amp, q, prev)
		}
		prev = q
	}
}

func TestUQIFlatImages(t *testing.T) {
	a := gray.New(16, 16)
	b := gray.New(16, 16)
	// Both all-black: identical -> 1.
	q, err := UQI(a, b, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Errorf("UQI(black, black) = %v, want 1", q)
	}
	// Flat gray vs flat brighter gray: luminance term only.
	a.Fill(100)
	b.Fill(200)
	q, _ = UQI(a, b, UQIOptions{})
	want := 2.0 * 100 * 200 / (100.0*100 + 200.0*200)
	if math.Abs(q-want) > 1e-9 {
		t.Errorf("UQI(flat100, flat200) = %v, want %v", q, want)
	}
}

func TestUQITinyImageFallback(t *testing.T) {
	a := gray.New(3, 3)
	a.Fill(50)
	q, err := UQI(a, a, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Errorf("tiny image UQI(self) = %v, want 1", q)
	}
}

func TestUQIBadOptions(t *testing.T) {
	m := gray.New(16, 16)
	if _, err := UQI(m, m, UQIOptions{Window: -1}); err == nil {
		t.Error("negative window should error")
	}
	if _, err := UQI(m, m, UQIOptions{Step: -2}); err == nil {
		t.Error("negative step should error")
	}
	if _, err := UQI(&gray.Image{}, &gray.Image{}, UQIOptions{}); err == nil {
		t.Error("empty image should error")
	}
}

func TestUQIBlockModeMatchesSlidingOnUniformStats(t *testing.T) {
	// For a self-comparison both modes must give exactly 1.
	m := noisy(64, 64, 10)
	q1, _ := UQI(m, m, UQIOptions{Step: 1})
	q2, _ := UQI(m, m, UQIOptions{Step: DefaultWindow})
	if q1 != 1 || q2 != 1 {
		t.Errorf("self UQI block/sliding = %v/%v, want 1/1", q2, q1)
	}
}

func TestSSIMIdenticalAndRange(t *testing.T) {
	m := noisy(64, 64, 11)
	s, err := ssim(m, m, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("SSIM(self) = %v, want 1", s)
	}
	b := noisy(64, 64, 12)
	s, _ = ssim(m, b, UQIOptions{})
	if s < -1 || s > 1 {
		t.Errorf("SSIM out of range: %v", s)
	}
}

func TestSSIMMoreStableThanUQIOnFlats(t *testing.T) {
	// SSIM's constants keep flat regions from blowing up; a tiny
	// perturbation of a flat image should stay close to 1.
	a := gray.New(32, 32)
	a.Fill(128)
	b := a.Clone()
	b.Set(0, 0, 129)
	s, err := ssim(a, b, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.99 {
		t.Errorf("SSIM of near-identical flats = %v, want ~1", s)
	}
}

func TestSSIMShapeMismatch(t *testing.T) {
	if _, err := ssim(gray.New(8, 8), gray.New(9, 8), UQIOptions{}); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestDistortionPercent(t *testing.T) {
	if d := DistortionPercent(1); d != 0 {
		t.Errorf("D(1) = %v, want 0", d)
	}
	if d := DistortionPercent(0.9); math.Abs(d-10) > 1e-9 {
		t.Errorf("D(0.9) = %v, want 10", d)
	}
	if d := DistortionPercent(-1); d != 200 {
		t.Errorf("D(-1) = %v, want 200", d)
	}
	if d := DistortionPercent(1.5); d != 0 {
		t.Errorf("D(1.5) = %v, want clamp 0", d)
	}
	if d := DistortionPercent(-2); d != 200 {
		t.Errorf("D(-2) = %v, want clamp 200", d)
	}
}

func TestUQIDistortion(t *testing.T) {
	m := noisy(32, 32, 13)
	d, err := UQIMetric(m, lutRecon(func(p uint8) uint8 { return p }))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d) > 1e-6 {
		t.Errorf("distortion(self) = %v, want 0", d)
	}
}

// windowMoments accumulates the first and second moments of an aligned
// pair of windows one pixel at a time.
type windowMoments struct {
	n            float64
	sumX, sumY   float64
	sumXX, sumYY float64
	sumXY        float64
}

func (m *windowMoments) add(x, y float64) {
	m.n++
	m.sumX += x
	m.sumY += y
	m.sumXX += x * x
	m.sumYY += y * y
	m.sumXY += x * y
}

func (m *windowMoments) stats() (mx, my, vx, vy, cov float64) {
	mx = m.sumX / m.n
	my = m.sumY / m.n
	vx = m.sumXX/m.n - mx*mx
	vy = m.sumYY/m.n - my*my
	cov = m.sumXY/m.n - mx*my
	if vx < 0 {
		vx = 0
	}
	if vy < 0 {
		vy = 0
	}
	return
}

// naiveMeans is the oracle the walker must match bit for bit: it
// accumulates every window pixel by pixel, divides by n, and averages
// the per-window terms of UQI (Q), SSIM, and MS-SSIM's luminance and
// contrast·structure factors in row-major window order.
func naiveMeans(a, b *gray.Image, win, step int) (q, ssim, lum, cs float64) {
	count := 0
	for y := 0; y+win <= a.H; y += step {
		for x := 0; x+win <= a.W; x += step {
			var m windowMoments
			for dy := 0; dy < win; dy++ {
				row := (y + dy) * a.W
				for dx := 0; dx < win; dx++ {
					i := row + x + dx
					m.add(float64(a.Pix[i]), float64(b.Pix[i]))
				}
			}
			mx, my, vx, vy, cov := m.stats()
			q += uqiWindow(mx, my, vx, vy, cov)
			ssim += (2*mx*my + c1) * (2*cov + c2) / ((mx*mx + my*my + c1) * (vx + vy + c2))
			lum += (2*mx*my + c1) / (mx*mx + my*my + c1)
			cs += (2*cov + c2) / (vx + vy + c2)
			count++
		}
	}
	n := float64(count)
	return q / n, ssim / n, lum / n, cs / n
}

// uqiNaive is naiveMeans' UQI.
func uqiNaive(a, b *gray.Image, win, step int) float64 {
	q, _, _, _ := naiveMeans(a, b, win, step)
	return q
}

// checkWalkerMatchesNaive requires UQI, SSIM and the MS-SSIM factors to
// equal the naive oracle in every bit.
func checkWalkerMatchesNaive(t testing.TB, name string, a, b *gray.Image, opts UQIOptions) {
	t.Helper()
	if err := checkPair(a, b); err != nil {
		t.Fatal(err)
	}
	norm, err := opts.normalized(a.W, a.H)
	if err != nil {
		t.Fatal(err)
	}
	wq, ws, wl, wc := naiveMeans(a, b, norm.Window, norm.Step)
	q, err1 := UQI(a, b, opts)
	s, err2 := ssim(a, b, opts)
	l, c, err3 := measure(a, b, Recon{}, opts, ssimParts)
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		metric    string
		got, want float64
	}{{"UQI", q, wq}, {"SSIM", s, ws}, {"luminance", l, wl}, {"contrast-structure", c, wc}} {
		if math.Float64bits(v.got) != math.Float64bits(v.want) {
			t.Errorf("%s %dx%d %+v: %s %v (%#x) != naive %v (%#x)", name, a.W, a.H, opts,
				v.metric, v.got, math.Float64bits(v.got), v.want, math.Float64bits(v.want))
		}
	}
}

// checkReconMatchesPair requires the walker's Recon form on (a, g) to
// equal its pair form on the materialized (a, g.apply(a)) in every bit,
// for UQI, SSIM and both MS-SSIM factors. It returns the materialized
// reconstruction.
func checkReconMatchesPair(t testing.TB, name string, a *gray.Image, g Recon, opts UQIOptions) *gray.Image {
	t.Helper()
	b, err := g.apply(a)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := opts.normalized(a.W, a.H)
	if err != nil {
		t.Fatal(err)
	}
	q, err1 := UQI(a, b, opts)
	s, err2 := ssim(a, b, opts)
	l, c, err3 := measure(a, b, Recon{}, opts, ssimParts)
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	gq, _ := walk(a, nil, g, norm.Window, norm.Step, uqiTerms)
	gs, _ := walk(a, nil, g, norm.Window, norm.Step, ssimTerms)
	gl, gc := walk(a, nil, g, norm.Window, norm.Step, ssimParts)
	for _, v := range []struct {
		metric    string
		got, want float64
	}{{"UQI", gq, q}, {"SSIM", gs, s}, {"luminance", gl, l}, {"contrast-structure", gc, c}} {
		if math.Float64bits(v.got) != math.Float64bits(v.want) {
			t.Errorf("%s %dx%d %+v grid %v×%v: Recon %s %v != pair %v", name, a.W, a.H, opts,
				g.XCuts, g.YCuts, v.metric, v.got, v.want)
		}
	}
	return b
}

// randomCuts returns n+1 sorted cut points from 0 to size; inner cuts
// may repeat, which makes an empty zone column or row.
func randomCuts(s *rng.Source, n, size int) []int {
	cuts := make([]int, n+1)
	cuts[n] = size
	for i := 1; i < n; i++ {
		cuts[i] = s.Intn(size + 1)
	}
	sort.Ints(cuts)
	return cuts
}

// randomRecon returns a zone grid of up to 5×5 random LUTs over a w×h
// image.
func randomRecon(s *rng.Source, w, h int) Recon {
	g := Recon{XCuts: randomCuts(s, 1+s.Intn(5), w), YCuts: randomCuts(s, 1+s.Intn(5), h)}
	g.Zones = make([]*transform.LUT, (len(g.XCuts)-1)*(len(g.YCuts)-1))
	for k := range g.Zones {
		lut := new(transform.LUT)
		for i := range lut {
			lut[i] = uint8(s.Intn(256))
		}
		g.Zones[k] = lut
	}
	return g
}

// TestReconMetricsRejectBadRecon: a reconstruction that does not tile
// the image is an error for every metric, not an out-of-range panic.
func TestReconMetricsRejectBadRecon(t *testing.T) {
	a := noisy(16, 12, 1)
	lut := new(transform.LUT)
	zones := func(n int) []*transform.LUT {
		z := make([]*transform.LUT, n)
		for i := range z {
			z[i] = lut
		}
		return z
	}
	for i, g := range []Recon{
		{},
		{LUT: lut, Zones: zones(1), XCuts: []int{0, 16}, YCuts: []int{0, 12}},
		{Zones: zones(1), XCuts: []int{0, 15}, YCuts: []int{0, 12}},
		{Zones: zones(1), XCuts: []int{16}, YCuts: []int{0, 12}},
		{Zones: zones(2), XCuts: []int{0, 16}, YCuts: []int{0, 12}},
		{Zones: []*transform.LUT{nil}, XCuts: []int{0, 16}, YCuts: []int{0, 12}},
		{Zones: zones(2), XCuts: []int{0, 17, 16}, YCuts: []int{0, 12}},
	} {
		for _, metric := range []func(*gray.Image, Recon) (float64, error){UQIMetric, SSIMMetric, SSIMGaussianMetric, MSSSIMMetric} {
			if _, err := metric(a, g); err == nil {
				t.Errorf("recon %d: no error", i)
			}
		}
	}
	if _, err := UQIMetric(nil, Recon{LUT: lut}); err == nil {
		t.Error("nil image: no error")
	}
}

// TestUQIWalkerMatchesNaive: the running-sum walker is bit-identical to
// direct per-window accumulation for unrelated images, block and
// strided steps, windows that are not a power of two, and the 1×1
// window.
func TestUQIWalkerMatchesNaive(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		a := noisy(40, 33, seed*2+1)
		b := noisy(40, 33, seed*2+2)
		for _, cfg := range []UQIOptions{{Window: 8, Step: 1}, {Window: 8, Step: 8}, {Window: 8, Step: 11},
			{Window: 5, Step: 3}, {Window: 7, Step: 1}, {Window: 4, Step: 2}, {Window: 2, Step: 1}, {Window: 1, Step: 1}} {
			checkWalkerMatchesNaive(t, "noisy", a, b, cfg)
		}
	}
}

// TestUQIWalkerMatchesNaiveSuite: the walker matches the oracle on the
// comparisons the range search makes, every benchmark image against
// its reconstruction after linear compression to range R, plus the
// all-white against all-black extreme (the largest sums) and the
// tiny-image fallback.
func TestUQIWalkerMatchesNaiveSuite(t *testing.T) {
	for _, size := range []int{37, 64, 256} {
		suite, err := sipi.Suite(size, size)
		if err != nil {
			t.Fatal(err)
		}
		if size == 256 && testing.Short() {
			suite = suite[:2]
		}
		for _, r := range []int{2, 20, 100, 200, 255} {
			lut, err := transform.ScaleToRange(0, uint8(r))
			if err != nil {
				t.Fatal(err)
			}
			recon, err := lut.Reconstruction()
			if err != nil {
				t.Fatal(err)
			}
			// A 4×4 zone grid like a local-dimming frame's: zone k
			// reconstructs linear compression to its own range.
			grid := Recon{XCuts: make([]int, 5), YCuts: make([]int, 5), Zones: make([]*transform.LUT, 16)}
			for i := range grid.XCuts {
				grid.XCuts[i], grid.YCuts[i] = i*size/4, i*size/4
			}
			for k := range grid.Zones {
				zl, err := transform.ScaleToRange(0, uint8(2+(r+37*k)%254))
				if err != nil {
					t.Fatal(err)
				}
				if grid.Zones[k], err = zl.Reconstruction(); err != nil {
					t.Fatal(err)
				}
			}
			for _, im := range suite {
				b := checkReconMatchesPair(t, im.Name, im.Image, Recon{LUT: recon}, UQIOptions{})
				checkWalkerMatchesNaive(t, im.Name, im.Image, b, UQIOptions{})
				checkReconMatchesPair(t, im.Name, im.Image, grid, UQIOptions{})
			}
		}
	}
	white, black := gray.New(64, 64), gray.New(64, 64)
	white.Fill(255)
	checkWalkerMatchesNaive(t, "white/black", white, black, UQIOptions{})
	checkWalkerMatchesNaive(t, "white/black", white, black, UQIOptions{Window: 64})
	checkWalkerMatchesNaive(t, "tiny", noisy(3, 300, 1), noisy(3, 300, 2), UQIOptions{})
	tiny := noisy(3, 300, 1)
	checkWalkerMatchesNaive(t, "tiny", tiny, checkReconMatchesPair(t, "tiny", tiny, randomRecon(rng.New(1), 3, 300), UQIOptions{}), UQIOptions{})
}

// FuzzUQI drives the walker against the oracle over random geometries,
// windows, steps and pixels.
func FuzzUQI(f *testing.F) {
	f.Add(uint8(37), uint8(29), uint8(8), uint8(1), uint64(1))
	f.Add(uint8(9), uint8(200), uint8(8), uint8(3), uint64(2))
	f.Add(uint8(3), uint8(3), uint8(0), uint8(0), uint64(3))
	f.Add(uint8(64), uint8(64), uint8(6), uint8(7), uint64(4))
	f.Fuzz(func(t *testing.T, w, h, win, step uint8, seed uint64) {
		if w == 0 || h == 0 {
			return
		}
		a, b := gray.New(int(w), int(h)), gray.New(int(w), int(h))
		s := rng.New(seed)
		for i := range a.Pix {
			a.Pix[i] = uint8(s.Intn(256))
			b.Pix[i] = uint8(s.Intn(256))
			if s.Intn(4) == 0 {
				b.Pix[i] = a.Pix[i] // correlated runs and flat windows
			}
		}
		opts := UQIOptions{Window: int(win) % 17, Step: int(step) % 9}
		checkWalkerMatchesNaive(t, "fuzz", a, b, opts)
		checkWalkerMatchesNaive(t, "fuzz", a, checkReconMatchesPair(t, "fuzz", a, randomRecon(s, int(w), int(h)), opts), opts)
	})
}

func BenchmarkUQISliding(b *testing.B) {
	x := noisy(128, 128, 1)
	y := noisy(128, 128, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UQI(x, y, UQIOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUQISlidingNaive(b *testing.B) {
	x := noisy(128, 128, 1)
	y := noisy(128, 128, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uqiNaive(x, y, DefaultWindow, 1)
	}
}

func TestUQIDistortionGrowsAsBandShrinks(t *testing.T) {
	// Compressing an image into a narrower band then re-expanding loses
	// levels; UQI distortion should grow monotonically with compression.
	m := noisy(64, 64, 16)
	prev := -1.0
	for _, r := range []int{220, 150, 80} {
		scale := float64(r) / 255
		d, err := UQIMetric(m, lutRecon(func(p uint8) uint8 {
			v := math.Round(float64(uint8(float64(p)*scale)) / scale)
			if v > 255 {
				v = 255
			}
			return uint8(v)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if d < prev {
			t.Errorf("distortion at range %d = %v, want >= %v", r, d, prev)
		}
		prev = d
	}
}
