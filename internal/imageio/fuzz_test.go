package imageio

import (
	"bytes"
	"testing"

	"hebs/internal/gray"
)

// FuzzDecodePNM hardens the Netpbm parser: arbitrary byte streams must
// either fail cleanly or produce a structurally valid image, and any
// image that decodes must re-encode and decode to the same pixels.
func FuzzDecodePNM(f *testing.F) {
	// Seed corpus: valid images of each flavour plus near-miss corruptions.
	f.Add([]byte("P2\n2 2\n255\n0 64\n128 255\n"))
	f.Add([]byte("P5\n2 2\n255\n\x00\x40\x80\xff"))
	f.Add([]byte("P3\n1 1\n255\n255 0 0\n"))
	f.Add([]byte("P6\n1 1\n255\n\xff\x00\x00"))
	f.Add([]byte("P5\n2 1\n65535\n\xff\xff\x00\x00"))
	f.Add([]byte("P2 # comment\n1 1\n255\n7\n"))
	f.Add([]byte("P2\n-1 1\n255\n0\n"))
	f.Add([]byte("P5\n9999999 9999999\n255\n"))
	f.Add([]byte("P9\n1 1\n255\n0\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := DecodePNM(bytes.NewReader(data))
		if err != nil {
			return // clean rejection is fine
		}
		if img.W <= 0 || img.H <= 0 || len(img.Pix) != img.W*img.H {
			t.Fatalf("decoded structurally invalid image: %dx%d len %d",
				img.W, img.H, len(img.Pix))
		}
		// Round trip must be stable.
		var buf bytes.Buffer
		if err := EncodePGM(&buf, img); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := DecodePNM(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !img.Equal(back) {
			t.Fatal("round trip changed pixels")
		}
	})
}

// FuzzEncodeDecodePGM drives the binary writer with arbitrary pixel
// content: whatever we write we must read back exactly.
func FuzzEncodeDecodePGM(f *testing.F) {
	f.Add(uint16(3), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint16(1), []byte{0})
	f.Add(uint16(255), bytes.Repeat([]byte{0xff}, 255))
	f.Fuzz(func(t *testing.T, w16 uint16, pix []byte) {
		w := int(w16)
		if w == 0 || len(pix) == 0 || len(pix) > 1<<14 {
			return
		}
		if len(pix)%w != 0 {
			pix = pix[:len(pix)-len(pix)%w]
			if len(pix) == 0 {
				return
			}
		}
		h := len(pix) / w
		img := &gray.Image{W: w, H: h, Pix: pix}
		var buf bytes.Buffer
		if err := EncodePGM(&buf, img); err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := DecodePNM(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !img.Equal(back) {
			t.Fatal("round trip changed pixels")
		}
	})
}
