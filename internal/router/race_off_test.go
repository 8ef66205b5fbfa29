//go:build !race

package router

// raceScale is 1 without the race detector; see race_on_test.go.
const raceScale = 1
