//go:build !race

package serve

// stateMachineSeeds is 16 without the race detector; see race_on_test.go.
const stateMachineSeeds = 16
