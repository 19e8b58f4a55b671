//go:build race

package engine

// raceEnabled reports a -race build. The race detector drops sync.Pool
// entries at random, so an allocation count that leans on the batch pool
// is higher under it, and varies.
const raceEnabled = true
