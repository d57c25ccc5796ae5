//go:build race

package parrot

// raceEnabled reports the race detector is active: alloc-count tests
// skip, because race instrumentation makes sync.Pool drop puts at
// random (by design, to expose races), so pooled paths show spurious
// allocations.
const raceEnabled = true
