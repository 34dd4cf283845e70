package bus

import (
	"math/bits"
	"testing"
	"testing/quick"

	"hebs/internal/sipi"
)

func TestGrayCodeRoundTrip(t *testing.T) {
	// toGray is a bijection on 8-bit words, so Gray-code transmission
	// is lossless: every code maps back to exactly one value.
	var seen [256]bool
	for v := 0; v < 256; v++ {
		g := toGray(uint8(v))
		if seen[g] {
			t.Fatalf("gray code %d repeats at %d", g, v)
		}
		seen[g] = true
	}
}

func TestGrayCodeAdjacency(t *testing.T) {
	// The defining property: consecutive values differ in exactly 1 bit.
	for v := 0; v < 255; v++ {
		d := toGray(uint8(v)) ^ toGray(uint8(v+1))
		if bits.OnesCount8(d) != 1 {
			t.Fatalf("gray(%d) and gray(%d) differ in %d bits", v, v+1, bits.OnesCount8(d))
		}
	}
}

func TestTransmitRawKnownCounts(t *testing.T) {
	// 0x00 -> 0xFF -> 0x00: 8 + 8 transitions (starting state 0 costs 0).
	st, err := Transmit([]uint8{0x00, 0xFF, 0x00}, Raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.Transitions != 16 {
		t.Errorf("transitions = %d, want 16", st.Transitions)
	}
	if st.Words != 3 {
		t.Errorf("words = %d, want 3", st.Words)
	}
	if st.ExtraWires != 0 {
		t.Error("raw needs no extra wires")
	}
}

func TestBusInvertWorstCaseBound(t *testing.T) {
	// Alternating 0x00/0xFF is the worst case for raw (8/word) and the
	// showcase for bus-invert (≤ 1+0 transitions/word: the indicator).
	words := make([]uint8, 100)
	for i := range words {
		if i%2 == 1 {
			words[i] = 0xFF
		}
	}
	raw, err := Transmit(words, Raw)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := Transmit(words, BusInvert)
	if err != nil {
		t.Fatal(err)
	}
	if raw.TransitionsPerWord() < 7.9 {
		t.Errorf("raw worst case = %v transitions/word, want ~8", raw.TransitionsPerWord())
	}
	if bi.TransitionsPerWord() > 1.1 {
		t.Errorf("bus-invert on alternating pattern = %v transitions/word, want ~1",
			bi.TransitionsPerWord())
	}
	if bi.ExtraWires != 1 {
		t.Error("bus-invert must report its indicator wire")
	}
}

func TestBusInvertNeverWorseThanHalfPlusOne(t *testing.T) {
	// Per word: min(k, 8-k) + possible indicator toggle <= 5.
	f := func(words []uint8) bool {
		st, err := Transmit(words, BusInvert)
		if err != nil {
			return false
		}
		return st.Transitions <= int64(len(words))*5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeMatchesTransmitCounts(t *testing.T) {
	// Transitions measured by Transmit equal those implied by each
	// scheme's wire words (bus-invert's indicator line aside).
	words := []uint8{3, 200, 7, 7, 130, 255, 0, 64}
	for _, enc := range []Encoding{Raw, GrayCode, Differential} {
		st, err := Transmit(words, enc)
		if err != nil {
			t.Fatal(err)
		}
		wire := make([]uint8, len(words))
		var prev uint8
		for i, w := range words {
			switch enc {
			case Raw:
				wire[i] = w
			case GrayCode:
				wire[i] = toGray(w)
			case Differential:
				wire[i] = zigzag(int8(w - prev))
				prev = w
			}
		}
		var state uint8
		var n int64
		for _, w := range wire {
			n += int64(bits.OnesCount8(w ^ state))
			state = w
		}
		if n != st.Transitions {
			t.Errorf("%v: Transmit says %d, wire words imply %d", enc, st.Transitions, n)
		}
	}
}

func TestDifferentialConstantRunIsFree(t *testing.T) {
	// After the first word, a constant run produces zero transitions:
	// XOR with the previous word puts 0x00 on the wires.
	words := make([]uint8, 50)
	for i := range words {
		words[i] = 0xA5
	}
	st, err := Transmit(words, Differential)
	if err != nil {
		t.Fatal(err)
	}
	// Word 1 puts zigzag(0xA5 − 0) on the wires; word 2 onward the delta
	// is zero, so the wires drop to 0x00 once and then never toggle.
	delta := uint8(0xA5)
	first := int64(bits.OnesCount8(zigzag(int8(delta))))
	if st.Transitions != 2*first {
		t.Errorf("constant-run differential transitions = %d, want %d", st.Transitions, 2*first)
	}
}

func TestImageEncodingsReduceSwitching(t *testing.T) {
	// On natural-statistics images every locality-aware scheme must beat
	// raw binary — the premise of refs [2][3].
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := CompareImage(img)
	if err != nil {
		t.Fatal(err)
	}
	var raw Stats
	for _, st := range stats {
		if st.Encoding == Raw {
			raw = st
		}
	}
	if raw.Transitions == 0 {
		t.Fatal("raw run missing")
	}
	for _, st := range stats {
		if st.Encoding == Raw {
			continue
		}
		saving := st.SavingsVersus(raw)
		if saving <= 0 {
			t.Errorf("%v does not reduce switching: %.1f%%", st.Encoding, saving)
		}
		t.Logf("%v: %.2f transitions/word (%.1f%% saving)",
			st.Encoding, st.TransitionsPerWord(), saving)
	}
}

func TestCompareImageNil(t *testing.T) {
	if _, err := CompareImage(nil); err == nil {
		t.Error("nil image should error")
	}
	if _, err := TransmitImage(nil, Raw); err == nil {
		t.Error("nil image should error")
	}
	if _, err := Transmit([]uint8{1}, Encoding(99)); err == nil {
		t.Error("unknown encoding in Transmit should error")
	}
}

func TestEncodingString(t *testing.T) {
	names := map[Encoding]string{
		Raw: "raw", GrayCode: "gray-code", Differential: "differential", BusInvert: "bus-invert",
	}
	for enc, want := range names {
		if enc.String() != want {
			t.Errorf("%d.String() = %q, want %q", enc, enc.String(), want)
		}
	}
	if Encoding(7).String() != "encoding(7)" {
		t.Error("unknown encoding string wrong")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Words: 4, Transitions: 8}
	if s.TransitionsPerWord() != 2 {
		t.Errorf("TransitionsPerWord = %v", s.TransitionsPerWord())
	}
	var empty Stats
	if empty.TransitionsPerWord() != 0 {
		t.Error("empty stats should give 0 transitions/word")
	}
	if s.SavingsVersus(Stats{}) != 0 {
		t.Error("savings vs empty baseline should be 0")
	}
	if got := (Stats{Transitions: 25}).SavingsVersus(Stats{Transitions: 100}); got != 75 {
		t.Errorf("savings = %v, want 75", got)
	}
}
