// Package bus models the digital video interface between the graphics
// controller and the LCD controller and the encoding schemes that
// lower its switching power — the *first* class of LCD power
// techniques surveyed in the paper's introduction (refs. [2] and [3]):
// interface energy is proportional to the number of bit transitions on
// the bus wires, and encodings that exploit the spatial locality of
// video data reduce those transitions.
//
// Implemented schemes, all on an 8-bit parallel pixel bus:
//
//   - Raw binary transmission (the baseline protocol).
//   - Gray-code transmission: neighbouring pixel values differ in few
//     bits, so converting to a Gray code turns the ±1 steps of smooth
//     image regions into single-bit transitions.
//   - Differential transmission (ref. [2]'s locality idea): each word
//     is sent as the zigzag-coded difference to the previous one, so
//     the small ± steps of smooth image regions become small wire
//     values with few set bits.
//   - Bus-invert coding (the classic limited-transition code from the
//     family of ref. [3]): each word is sent either as-is or inverted
//     — whichever differs from the previous bus state in fewer bits —
//     plus one invert-indicator line; the worst case drops to 4
//     transitions per 8-bit word.
//
// The package measures transitions exactly by simulating the bus state
// wire by wire, so scheme comparisons are cycle-accurate for the
// modeled interface.
package bus

import (
	"errors"
	"fmt"
	"math/bits"

	"hebs/internal/gray"
)

// Encoding identifies a bus encoding scheme.
type Encoding int

// The supported encodings.
const (
	Raw Encoding = iota
	GrayCode
	Differential
	BusInvert
)

// Encodings lists every scheme in a stable order.
var Encodings = []Encoding{Raw, GrayCode, Differential, BusInvert}

// String implements fmt.Stringer.
func (e Encoding) String() string {
	switch e {
	case Raw:
		return "raw"
	case GrayCode:
		return "gray-code"
	case Differential:
		return "differential"
	case BusInvert:
		return "bus-invert"
	default:
		return fmt.Sprintf("encoding(%d)", int(e))
	}
}

// toGray converts binary to reflected Gray code.
func toGray(v uint8) uint8 { return v ^ (v >> 1) }

// zigzag maps a signed 8-bit delta onto small unsigned codes:
// 0,-1,+1,-2,+2,… -> 0,1,2,3,4,… so that small |delta| means few set
// bits on the wire.
func zigzag(d int8) uint8 {
	return uint8((int16(d) << 1) ^ (int16(d) >> 7))
}

// Stats summarizes a simulated transmission.
type Stats struct {
	Encoding    Encoding
	Words       int
	Transitions int64
	// ExtraWires is the number of side-band wires the scheme needs
	// beyond the 8 data lines (1 for bus-invert's indicator).
	ExtraWires int
}

// TransitionsPerWord returns the average switching activity.
func (s Stats) TransitionsPerWord() float64 {
	if s.Words == 0 {
		return 0
	}
	return float64(s.Transitions) / float64(s.Words)
}

// SavingsVersus returns the percentage reduction in transitions
// relative to a baseline run (typically Raw on the same data).
func (s Stats) SavingsVersus(baseline Stats) float64 {
	if baseline.Transitions == 0 {
		return 0
	}
	return 100 * (1 - float64(s.Transitions)/float64(baseline.Transitions))
}

// Transmit simulates sending the words over the 8-bit bus with the
// given encoding and returns exact transition counts. The bus state
// starts at zero, mirroring an idle interface.
func Transmit(words []uint8, enc Encoding) (Stats, error) {
	st := Stats{Encoding: enc, Words: len(words)}
	var state uint8    // current data-line state
	var invLine uint8  // bus-invert indicator line state
	var prevWord uint8 // previous plaintext word (for differential)
	for _, w := range words {
		var wire uint8
		switch enc {
		case Raw:
			wire = w
		case GrayCode:
			wire = toGray(w)
		case Differential:
			wire = zigzag(int8(w - prevWord))
			prevWord = w
		case BusInvert:
			st.ExtraWires = 1
			plain := w
			inverted := ^w
			if bits.OnesCount8(plain^state) <= bits.OnesCount8(inverted^state) {
				wire = plain
				if invLine != 0 {
					st.Transitions++
					invLine = 0
				}
			} else {
				wire = inverted
				if invLine == 0 {
					st.Transitions++
					invLine = 1
				}
			}
		default:
			return Stats{}, fmt.Errorf("bus: unknown encoding %v", enc)
		}
		st.Transitions += int64(bits.OnesCount8(wire ^ state))
		state = wire
	}
	return st, nil
}

// TransmitImage streams an image in raster order.
func TransmitImage(img *gray.Image, enc Encoding) (Stats, error) {
	if img == nil {
		return Stats{}, errors.New("bus: nil image")
	}
	return Transmit(img.Pix, enc)
}

// CompareImage runs every encoding over the image and returns the
// stats in Encodings order — the data behind the interface-power
// comparison of refs. [2]/[3].
func CompareImage(img *gray.Image) ([]Stats, error) {
	out := make([]Stats, 0, len(Encodings))
	for _, enc := range Encodings {
		st, err := TransmitImage(img, enc)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}
