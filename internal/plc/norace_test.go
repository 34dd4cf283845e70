//go:build !race

package plc

const raceEnabled = false
