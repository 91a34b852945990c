//go:build race

package pipeline

// raceEnabled reports whether the race detector is compiled in; the
// select-equivalence and wake-bound sweeps scale down under it (the
// detector multiplies simulation time ~10×, and those sweeps exercise no
// concurrency).
const raceEnabled = true
