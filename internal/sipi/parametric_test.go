package sipi

import (
	"math"
	"testing"

	"hebs/internal/histogram"
)

func TestPortraitSpec(t *testing.T) {
	img, err := Portrait(48, 48, PortraitSpec{Mean: 0.5, Spread: 0.2, Grain: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := img.Statistics()
	if math.Abs(st.Mean-0.5*255) > 40 {
		t.Errorf("portrait mean %v far from requested 127", st.Mean)
	}
	// Determinism.
	again, err := Portrait(48, 48, PortraitSpec{Mean: 0.5, Spread: 0.2, Grain: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(again) {
		t.Error("same spec+seed should reproduce exactly")
	}
	other, err := Portrait(48, 48, PortraitSpec{Mean: 0.5, Spread: 0.2, Grain: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if img.Equal(other) {
		t.Error("different seeds should differ")
	}
}

func TestPortraitValidation(t *testing.T) {
	bad := []PortraitSpec{
		{Mean: -0.1, Spread: 0.2},
		{Mean: 0.5, Spread: 1.2},
		{Mean: 0.5, Spread: 0.2, Grain: math.NaN()},
	}
	for i, spec := range bad {
		if _, err := Portrait(16, 16, spec); err == nil {
			t.Errorf("spec %d should error", i)
		}
	}
	if _, err := Portrait(0, 16, PortraitSpec{Mean: 0.5, Spread: 0.2}); err == nil {
		t.Error("zero width should error")
	}
}

func TestLandscapeSpec(t *testing.T) {
	img, err := Landscape(64, 64, LandscapeSpec{SkyLevel: 0.8, GroundLevel: 0.3, Octaves: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The top rows (sky) are brighter than the bottom rows (ground).
	var top, bottom float64
	for x := 0; x < 64; x++ {
		top += float64(img.At(x, 2))
		bottom += float64(img.At(x, 61))
	}
	if top <= bottom {
		t.Errorf("sky (%v) not brighter than ground (%v)", top/64, bottom/64)
	}
	for _, spec := range []LandscapeSpec{
		{SkyLevel: 1.5, GroundLevel: 0.3, Octaves: 4},
		{SkyLevel: 0.5, GroundLevel: -1, Octaves: 4},
		{SkyLevel: 0.5, GroundLevel: 0.3, Octaves: 0},
		{SkyLevel: 0.5, GroundLevel: 0.3, Octaves: 11},
	} {
		if _, err := Landscape(16, 16, spec); err == nil {
			t.Errorf("spec %+v should error", spec)
		}
	}
}

func TestBlobsSpec(t *testing.T) {
	img, err := Blobs(48, 48, BlobsSpec{Count: 5, Lo: 0.2, Hi: 0.9, Grain: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if img.Statistics().NumLevels < 8 {
		t.Error("blob scene too flat")
	}
	for _, spec := range []BlobsSpec{
		{Count: 0, Lo: 0.2, Hi: 0.9},
		{Count: 3, Lo: 0.9, Hi: 0.2},
		{Count: 3, Lo: 0.2, Hi: 1.4},
		{Count: 3, Lo: 0.2, Hi: 0.9, Grain: 2},
	} {
		if _, err := Blobs(16, 16, spec); err == nil {
			t.Errorf("spec %+v should error", spec)
		}
	}
}

func TestTextureSpec(t *testing.T) {
	img, err := Texture(64, 64, TextureSpec{Octaves: 8, Lo: 0.1, Hi: 0.9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h := histogram.Of(img)
	if entropy(h) < 5 {
		t.Errorf("broadband texture entropy %v too low", entropy(h))
	}
	for _, spec := range []TextureSpec{
		{Octaves: 0, Lo: 0.1, Hi: 0.9},
		{Octaves: 4, Lo: 0.9, Hi: 0.1},
		{Octaves: 4, Lo: -0.1, Hi: 0.9},
	} {
		if _, err := Texture(16, 16, spec); err == nil {
			t.Errorf("spec %+v should error", spec)
		}
	}
}

func TestGradientHorizontal(t *testing.T) {
	img, err := Gradient(64, 16, 0.1, 0.9, 0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone left to right, constant per column.
	for y := 0; y < 16; y++ {
		prev := -1
		for x := 0; x < 64; x++ {
			v := int(img.At(x, y))
			if v < prev {
				t.Fatalf("gradient decreases at (%d,%d)", x, y)
			}
			prev = v
			if img.At(x, y) != img.At(x, 0) {
				t.Fatalf("horizontal gradient varies vertically at (%d,%d)", x, y)
			}
		}
	}
	if math.Abs(float64(img.At(0, 0))-0.1*255) > 2 {
		t.Errorf("left endpoint %d, want ~26", img.At(0, 0))
	}
	if math.Abs(float64(img.At(63, 0))-0.9*255) > 2 {
		t.Errorf("right endpoint %d, want ~230", img.At(63, 0))
	}
}

func TestGradientVerticalAndGrain(t *testing.T) {
	img, err := Gradient(16, 64, 0, 1, math.Pi/2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if img.At(0, 0) != 0 || img.At(0, 63) != 255 {
		t.Errorf("vertical endpoints %d..%d", img.At(0, 0), img.At(0, 63))
	}
	grainy, err := Gradient(16, 64, 0, 1, math.Pi/2, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	if grainy.Equal(img) {
		t.Error("grain had no effect")
	}
}

func TestGradientValidation(t *testing.T) {
	if _, err := Gradient(0, 4, 0, 1, 0, 0, 1); err == nil {
		t.Error("zero width should error")
	}
	if _, err := Gradient(4, 4, -1, 1, 0, 0, 1); err == nil {
		t.Error("from < 0 should error")
	}
	if _, err := Gradient(4, 4, 0, 2, 0, 0, 1); err == nil {
		t.Error("to > 1 should error")
	}
	if _, err := Gradient(4, 4, 0, 1, 0, -0.5, 1); err == nil {
		t.Error("negative grain should error")
	}
}
