//go:build race

package plc

// raceEnabled marks a -race build, whose runtime drops sync.Pool items
// at random: pooled steady-state allocation budgets do not apply.
const raceEnabled = true
