//go:build !race

package core

// raceEnabled reports whether the race detector instruments the test
// binary; it changes some of the planner's heap allocation counts.
const raceEnabled = false
