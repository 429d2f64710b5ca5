//go:build !race

package stream

// raceEnabled gates the allocation-budget tests: the race detector's
// instrumentation allocates on its own, so alloc counts are only meaningful
// uninstrumented.
const raceEnabled = false
