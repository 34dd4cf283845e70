package histogram

import (
	"math"
	"math/rand"
	"testing"

	"hebs/internal/gray"
)

func flat(level uint8) *Histogram {
	m := gray.New(16, 16)
	m.Fill(level)
	return Of(m)
}

func TestNewEstimatorValidation(t *testing.T) {
	for _, a := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewEstimator(a); err == nil {
			t.Errorf("alpha %v should error", a)
		}
	}
	if _, err := NewEstimator(1); err != nil {
		t.Errorf("alpha 1 should be accepted: %v", err)
	}
}

func TestEstimatorFirstObservation(t *testing.T) {
	e, err := NewEstimator(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Ready() {
		t.Error("fresh estimator should not be ready")
	}
	if err := e.Observe(flat(100)); err != nil {
		t.Fatal(err)
	}
	if !e.Ready() {
		t.Error("estimator should be ready after one frame")
	}
	h, err := e.Histogram(1000)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins[100] != 1000 {
		t.Errorf("first observation should dominate: bins[100] = %d", h.Bins[100])
	}
}

func TestEstimatorConverges(t *testing.T) {
	e, _ := NewEstimator(0.3)
	if err := e.Observe(flat(50)); err != nil {
		t.Fatal(err)
	}
	// Feed the new scene repeatedly; the estimate must converge to it.
	for i := 0; i < 40; i++ {
		if err := e.Observe(flat(200)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := e.Histogram(1000)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins[200] < 990 {
		t.Errorf("estimate did not converge: bins[200] = %d", h.Bins[200])
	}
}

func TestEstimatorSmoothsTransient(t *testing.T) {
	e, _ := NewEstimator(0.1)
	if err := e.Observe(flat(50)); err != nil {
		t.Fatal(err)
	}
	// One transient bright frame barely moves the estimate.
	if err := e.Observe(flat(250)); err != nil {
		t.Fatal(err)
	}
	h, err := e.Histogram(1000)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins[50] < 850 {
		t.Errorf("transient moved the estimate too far: bins[50] = %d", h.Bins[50])
	}
	if h.Bins[250] > 150 {
		t.Errorf("transient weight too large: bins[250] = %d", h.Bins[250])
	}
}

func TestEstimatorAlphaOneTracksExactly(t *testing.T) {
	e, _ := NewEstimator(1)
	if err := e.Observe(flat(10)); err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(flat(99)); err != nil {
		t.Fatal(err)
	}
	h, err := e.Histogram(256)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins[99] != 256 || h.Bins[10] != 0 {
		t.Errorf("alpha=1 should track the last frame exactly: %d/%d", h.Bins[99], h.Bins[10])
	}
}

func TestEstimatorErrors(t *testing.T) {
	e, _ := NewEstimator(0.5)
	if err := e.Observe(nil); err == nil {
		t.Error("observe nil should error")
	}
	if _, err := e.Histogram(100); err == nil {
		t.Error("histogram before any observation should error")
	}
	if _, err := e.Distance(flat(1)); err == nil {
		t.Error("distance before any observation should error")
	}
	if err := e.Observe(flat(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Histogram(0); err == nil {
		t.Error("target mass 0 should error")
	}
	if _, err := e.Distance(nil); err == nil {
		t.Error("distance to nil should error")
	}
}

func TestEstimatorTinyMassStaysValid(t *testing.T) {
	e, _ := NewEstimator(0.5)
	// Spread mass thinly over many levels.
	m := gray.New(256, 1)
	for x := 0; x < 256; x++ {
		m.Set(x, 0, uint8(x))
	}
	if err := e.Observe(Of(m)); err != nil {
		t.Fatal(err)
	}
	h, err := e.Histogram(1)
	if err != nil {
		t.Fatal(err)
	}
	if h.N < 1 {
		t.Errorf("tiny-mass histogram invalid: N = %d", h.N)
	}
}

func TestEstimatorDistance(t *testing.T) {
	e, _ := NewEstimator(0.5)
	if err := e.Observe(flat(100)); err != nil {
		t.Fatal(err)
	}
	same, err := e.Distance(flat(100))
	if err != nil {
		t.Fatal(err)
	}
	if same != 0 {
		t.Errorf("distance to identical scene = %v, want 0", same)
	}
	far, err := e.Distance(flat(200))
	if err != nil {
		t.Fatal(err)
	}
	if far != 100 {
		t.Errorf("distance to shifted scene = %v, want 100 levels", far)
	}
	near, err := e.Distance(flat(110))
	if err != nil {
		t.Fatal(err)
	}
	if near >= far {
		t.Errorf("distance should grow with shift: %v >= %v", near, far)
	}
}

// fillImage writes a deterministic pseudo-random pixel pattern.
func fillImage(img *gray.Image, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
}

func TestEstimatorClone(t *testing.T) {
	est, err := NewEstimator(0.5)
	if err != nil {
		t.Fatal(err)
	}
	img := gray.New(64, 64)
	fillImage(img, 1)
	h := Of(img)
	if err := est.Observe(h); err != nil {
		t.Fatal(err)
	}
	snap := est.Clone()
	if !snap.Ready() {
		t.Fatal("clone lost readiness")
	}
	d0, err := snap.Distance(h)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the original must not move the snapshot.
	img2 := gray.New(64, 64)
	for i := range img2.Pix {
		img2.Pix[i] = 255
	}
	if err := est.Observe(Of(img2)); err != nil {
		t.Fatal(err)
	}
	d1, err := snap.Distance(h)
	if err != nil {
		t.Fatal(err)
	}
	if d0 != d1 { //hebslint:allow floateq
		t.Fatalf("snapshot drifted after original mutated: %v -> %v", d0, d1)
	}
}
