//go:build !race

package dse

// raceEnabled reports whether the race detector instruments this build.
// The allocation gate skips under it: instrumentation allocates on its
// own schedule.
const raceEnabled = false
