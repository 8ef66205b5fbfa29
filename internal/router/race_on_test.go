//go:build race

package router

// raceScale stretches TestChaosSoak's attempt timeout under the race
// detector, which slows this workload ~20x on one core: the timeout must
// stay above genuine request latency (queue wait included) or the router
// cancels healthy in-flight work and the soak becomes a retry storm.
const raceScale = 20
