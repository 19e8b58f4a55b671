//go:build !race

package engine

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
