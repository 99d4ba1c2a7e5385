//go:build race

package store_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
