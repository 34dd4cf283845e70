package bus_test

import (
	"fmt"

	"hebs/internal/bus"
)

// ExampleTransmit compares switching activity of the raw protocol and
// bus-invert coding on the worst-case alternating pattern.
func ExampleTransmit() {
	words := []uint8{0x00, 0xFF, 0x00, 0xFF, 0x00, 0xFF}
	raw, _ := bus.Transmit(words, bus.Raw)
	bi, _ := bus.Transmit(words, bus.BusInvert)
	fmt.Printf("raw:        %d transitions\n", raw.Transitions)
	fmt.Printf("bus-invert: %d transitions (+%d wire)\n", bi.Transitions, bi.ExtraWires)
	// The data lines never toggle — only the invert indicator does,
	// once per alternation after the first word.
	// Output:
	// raw:        40 transitions
	// bus-invert: 5 transitions (+1 wire)
}
