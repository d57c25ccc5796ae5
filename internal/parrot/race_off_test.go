//go:build !race

package parrot

// raceEnabled is false without -race; see race_on_test.go.
const raceEnabled = false
