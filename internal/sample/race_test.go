//go:build race

package sample_test

// raceEnabled reports a -race build. The race detector drops sync.Pool
// entries at random, so allocation counts that lean on a pool (fmt's
// printer cache on an error path) are not stable under it.
const raceEnabled = true
