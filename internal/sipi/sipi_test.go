package sipi

import (
	"math"
	"testing"

	"hebs/internal/histogram"
)

// entropy is the Shannon entropy of h's pixel distribution in bits.
func entropy(h *histogram.Histogram) float64 {
	e := 0.0
	for _, c := range h.Bins {
		if c > 0 {
			p := float64(c) / float64(h.N)
			e -= p * math.Log2(p)
		}
	}
	return e
}

func TestNamesCount(t *testing.T) {
	n := Names()
	if len(n) != 19 {
		t.Fatalf("suite has %d names, Table 1 has 19", len(n))
	}
	seen := map[string]bool{}
	for _, name := range n {
		if seen[name] {
			t.Errorf("duplicate name %q", name)
		}
		seen[name] = true
	}
	if n[0] != "lena" || n[len(n)-1] != "elaine" {
		t.Errorf("order should match Table 1: got first=%q last=%q", n[0], n[len(n)-1])
	}
}

func TestNamesReturnsCopy(t *testing.T) {
	n := Names()
	n[0] = "mutated"
	if Names()[0] != "lena" {
		t.Error("Names() exposes internal slice")
	}
}

func TestGenerateAllNames(t *testing.T) {
	for _, name := range Names() {
		img, err := Generate(name, 64, 64)
		if err != nil {
			t.Fatalf("Generate(%q): %v", name, err)
		}
		if img.W != 64 || img.H != 64 {
			t.Errorf("%q: wrong size %dx%d", name, img.W, img.H)
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nonexistent", 32, 32); err == nil {
		t.Error("unknown name should error")
	}
}

func TestGenerateBadSize(t *testing.T) {
	if _, err := Generate("lena", 0, 32); err == nil {
		t.Error("zero width should error")
	}
	if _, err := Generate("lena", 32, -1); err == nil {
		t.Error("negative height should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range []string{"lena", "baboon", "testpat"} {
		a, err := Generate(name, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("%q: generation not deterministic", name)
		}
	}
}

func TestImagesDiffer(t *testing.T) {
	imgs, err := Suite(48, 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(imgs); i++ {
		for j := i + 1; j < len(imgs); j++ {
			if imgs[i].Image.Equal(imgs[j].Image) {
				t.Errorf("%q and %q are identical", imgs[i].Name, imgs[j].Name)
			}
		}
	}
}

func TestSuiteOrderAndSize(t *testing.T) {
	imgs, err := Suite(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 19 {
		t.Fatalf("suite size %d, want 19", len(imgs))
	}
	for i, name := range Names() {
		if imgs[i].Name != name {
			t.Errorf("suite[%d] = %q, want %q", i, imgs[i].Name, name)
		}
	}
}

func TestStatisticalSignatures(t *testing.T) {
	// The whole point of the synthetic suite: key images must carry the
	// distinguishing statistics of their originals.
	get := func(name string) *histogram.Histogram {
		img, err := Generate(name, DefaultSize, DefaultSize)
		if err != nil {
			t.Fatal(err)
		}
		return histogram.Of(img)
	}

	// pout is famously low-contrast: narrow dynamic range of the bulk.
	pout := get("pout")
	// The bulk is what remains after clipping 2% of the mass per tail.
	lo, err := pout.Percentile(0.02)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := pout.Percentile(0.98)
	if err != nil {
		t.Fatal(err)
	}
	if hi-lo > 140 {
		t.Errorf("pout bulk range = %d, want narrow (<140)", hi-lo)
	}

	// baboon is broadband: wide range and high entropy.
	baboon := get("baboon")
	if baboon.DynamicRange() < 180 {
		t.Errorf("baboon range = %d, want wide (>=180)", baboon.DynamicRange())
	}
	if entropy(baboon) < 5.5 {
		t.Errorf("baboon entropy = %v bits, want > 5.5", entropy(baboon))
	}

	// baboon must be clearly busier than pout.
	if entropy(baboon) <= entropy(pout) {
		t.Errorf("baboon entropy (%v) should exceed pout (%v)",
			entropy(baboon), entropy(pout))
	}

	// testpat covers the exact full range.
	testpat := get("testpat")
	if testpat.MinLevel() != 0 || testpat.MaxLevel() != 255 {
		t.Errorf("testpat range [%d,%d], want [0,255]",
			testpat.MinLevel(), testpat.MaxLevel())
	}

	// splash is mostly dark: median well below mid-gray.
	splash := get("splash")
	med, err := splash.Percentile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med > 100 {
		t.Errorf("splash median = %d, want dark (<100)", med)
	}

	// sail is bimodal: bright sky above, dark water below mid-gray, so
	// the quartiles straddle a wide gap.
	sail := get("sail")
	q1, _ := sail.Percentile(0.25)
	q3, _ := sail.Percentile(0.75)
	if q3-q1 < 60 {
		t.Errorf("sail interquartile spread = %d, want bimodal (>=60)", q3-q1)
	}
}

func TestAllImagesUsableForHEBS(t *testing.T) {
	// Every suite image must have at least 2 levels (GHE needs a
	// non-degenerate histogram) and a sensible spread.
	imgs, err := Suite(DefaultSize, DefaultSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range imgs {
		st := ni.Image.Statistics()
		if st.NumLevels < 16 {
			t.Errorf("%q has only %d levels", ni.Name, st.NumLevels)
		}
		if st.Variance == 0 {
			t.Errorf("%q is constant", ni.Name)
		}
	}
}

func TestGenerateSmallSizes(t *testing.T) {
	// Generators must not panic on tiny canvases.
	for _, name := range Names() {
		for _, sz := range []int{1, 2, 7} {
			if _, err := Generate(name, sz, sz); err != nil {
				t.Errorf("Generate(%q, %d): %v", name, sz, err)
			}
		}
	}
}

func TestGenerateRectangular(t *testing.T) {
	img, err := Generate("west", 96, 48)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 96 || img.H != 48 {
		t.Errorf("size %dx%d, want 96x48", img.W, img.H)
	}
}
