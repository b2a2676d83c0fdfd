//go:build !race

package core

// raceEnabled reports whether the race detector instruments the test
// binary; it adds allocations that allocation pins must allow for.
const raceEnabled = false
