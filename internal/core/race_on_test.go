//go:build race

package core_test

// raceEnabled gates the allocation-budget tests: the race detector's
// instrumentation allocates on its own, so alloc counts are only meaningful
// uninstrumented.
const raceEnabled = true
