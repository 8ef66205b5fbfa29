//go:build race

package serve

// stateMachineSeeds is the number of seeded sequences
// TestSchedulerStateMachine runs. Under the race detector, whose
// instrumentation of the fp32 GEMM makes each sequence far slower, it runs
// the first four: they alone reach every path the test's coverage check
// demands (completion, preemption, prefix hit and eviction, expiry, step
// panic, admission hold).
const stateMachineSeeds = 4
