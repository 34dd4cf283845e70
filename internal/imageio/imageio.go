// Package imageio reads and writes the grayscale images HEBS operates
// on. It implements a self-contained Netpbm codec (PGM P2/P5 and PPM
// P3/P6, the formats the USC-SIPI database ships in) and thin PNG
// wrappers over the standard library. All loads reduce to 8-bit
// grayscale via gray.FromStdImage semantics.
package imageio

import (
	"bufio"
	"errors"
	"fmt"
	"image"
	"image/png"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hebs/internal/gray"
)

// ErrFormat is returned for byte streams that are not a recognized
// Netpbm image.
var ErrFormat = errors.New("imageio: unrecognized format")

// maxDim bounds accepted image dimensions to keep a corrupt header from
// triggering a huge allocation.
const maxDim = 1 << 15

// DecodePNM decodes a PGM (P2/P5) or PPM (P3/P6) stream into a
// grayscale image. PPM pixels are reduced with Rec. 601 luma weights.
// Maxval up to 65535 is accepted and rescaled to 8 bits.
func DecodePNM(r io.Reader) (*gray.Image, error) {
	br := bufio.NewReader(r)
	magic, err := pnmToken(br)
	if err != nil {
		return nil, err
	}
	var channels int
	var ascii bool
	switch magic {
	case "P2":
		channels, ascii = 1, true
	case "P5":
		channels, ascii = 1, false
	case "P3":
		channels, ascii = 3, true
	case "P6":
		channels, ascii = 3, false
	default:
		return nil, ErrFormat
	}
	w, err := pnmInt(br)
	if err != nil {
		return nil, fmt.Errorf("imageio: bad width: %w", err)
	}
	h, err := pnmInt(br)
	if err != nil {
		return nil, fmt.Errorf("imageio: bad height: %w", err)
	}
	maxval, err := pnmInt(br)
	if err != nil {
		return nil, fmt.Errorf("imageio: bad maxval: %w", err)
	}
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim {
		return nil, fmt.Errorf("imageio: unreasonable dimensions %dx%d", w, h)
	}
	if maxval <= 0 || maxval > 65535 {
		return nil, fmt.Errorf("imageio: unreasonable maxval %d", maxval)
	}
	n := w * h * channels
	samples := make([]int, n)
	if ascii {
		for i := 0; i < n; i++ {
			v, err := pnmInt(br)
			if err != nil {
				return nil, fmt.Errorf("imageio: truncated ASCII data at sample %d: %w", i, err)
			}
			samples[i] = v
		}
	} else {
		bytesPerSample := 1
		if maxval > 255 {
			bytesPerSample = 2
		}
		buf := make([]byte, n*bytesPerSample)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("imageio: truncated binary data: %w", err)
		}
		for i := 0; i < n; i++ {
			if bytesPerSample == 1 {
				samples[i] = int(buf[i])
			} else {
				samples[i] = int(buf[2*i])<<8 | int(buf[2*i+1])
			}
		}
	}
	for i, s := range samples {
		if s < 0 || s > maxval {
			return nil, fmt.Errorf("imageio: sample %d value %d exceeds maxval %d", i, s, maxval)
		}
	}
	img := gray.New(w, h)
	for p := 0; p < w*h; p++ {
		var v int
		if channels == 1 {
			v = samples[p]
		} else {
			r8 := samples[3*p]
			g8 := samples[3*p+1]
			b8 := samples[3*p+2]
			// Rec. 601 luma, the same weights as image/color.GrayModel.
			v = (299*r8 + 587*g8 + 114*b8 + 500) / 1000
		}
		img.Pix[p] = uint8((v*255 + maxval/2) / maxval)
	}
	return img, nil
}

// pnmToken reads the next whitespace-delimited token, skipping Netpbm
// '#' comments.
func pnmToken(br *bufio.Reader) (string, error) {
	var sb strings.Builder
	inComment := false
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && sb.Len() > 0 {
				return sb.String(), nil
			}
			return "", err
		}
		if inComment {
			if b == '\n' {
				inComment = false
			}
			continue
		}
		switch {
		case b == '#':
			if sb.Len() > 0 {
				return sb.String(), nil
			}
			inComment = true
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if sb.Len() > 0 {
				return sb.String(), nil
			}
		default:
			sb.WriteByte(b)
		}
	}
}

func pnmInt(br *bufio.Reader) (int, error) {
	tok, err := pnmToken(br)
	if err != nil {
		return 0, err
	}
	v := 0
	if len(tok) == 0 {
		return 0, ErrFormat
	}
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("imageio: non-numeric token %q", tok)
		}
		v = v*10 + int(c-'0')
		if v > 1<<30 {
			return 0, fmt.Errorf("imageio: numeric token %q overflows", tok)
		}
	}
	return v, nil
}

// EncodePGM writes the image as binary PGM (P5), the compact
// interchange format used by the benchmark dumps.
func EncodePGM(w io.Writer, img *gray.Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", img.W, img.H); err != nil {
		return err
	}
	if _, err := bw.Write(img.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// EncodePNG writes the image as an 8-bit grayscale PNG.
func EncodePNG(w io.Writer, img *gray.Image) error {
	return png.Encode(w, img.ToStdImage())
}

// DecodePNG reads a PNG and reduces it to grayscale.
func DecodePNG(r io.Reader) (*gray.Image, error) {
	std, err := png.Decode(r)
	if err != nil {
		return nil, err
	}
	return gray.FromStdImage(std), nil
}

// Load reads an image file, dispatching on the extension: .pgm/.ppm/.pnm
// use the Netpbm codec, .png the PNG codec, and anything else is probed
// with image.Decode.
func Load(path string) (*gray.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //hebslint:allow errdrop read-only file, nothing to lose on close
	switch strings.ToLower(filepath.Ext(path)) {
	case ".pgm", ".ppm", ".pnm":
		return DecodePNM(f)
	case ".png":
		return DecodePNG(f)
	default:
		std, _, err := image.Decode(f)
		if err != nil {
			return nil, fmt.Errorf("imageio: cannot decode %s: %w", path, err)
		}
		return gray.FromStdImage(std), nil
	}
}

// Save writes an image file, dispatching on the extension (.pgm binary
// PGM, .png PNG). Other extensions are rejected.
func Save(path string, img *gray.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var encErr error
	switch strings.ToLower(filepath.Ext(path)) {
	case ".pgm", ".pnm":
		encErr = EncodePGM(f, img)
	case ".png":
		encErr = EncodePNG(f, img)
	default:
		encErr = fmt.Errorf("imageio: unsupported output extension %q", filepath.Ext(path))
	}
	if closeErr := f.Close(); encErr == nil {
		encErr = closeErr
	}
	return encErr
}
