//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in; the
// allocation-count tests skip under it, since instrumentation allocates.
const raceEnabled = false
