package router

import (
	"fmt"
	"testing"
	"time"

	"tender/internal/chaos"
	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/serve"
	"tender/internal/workload"
)

// TestChaosSoak: a Poisson arrival stream over three sharded replicas
// while one seeded injector drops submissions with transport errors,
// stalls them past the attempt timeout, kills one replica outright, and
// vetoes KV admission checks as if the page pool ran dry. Attempt
// timeouts, bounded retries with deterministic backoff, per-replica
// breakers and the health prober must absorb all of it: every request
// completes, every output is bit-identical to the fault-free unbatched
// reference, and no replica — the crashed one included — leaks a KV page.
func TestChaosSoak(t *testing.T) {
	const (
		scheme   = "fp32"
		replicas = 3
		pageRows = 16
	)
	// The attempt timeout must sit above genuine request latency (queue
	// wait included) or the router cancels healthy in-flight work and the
	// soak becomes a retry storm; each stall outlasts it, so every
	// injected stall burns exactly one attempt.
	attemptTimeout := 2 * time.Second * raceScale
	m := model.New(model.Registry("opt-6.7b"))
	engines, err := engine.BuildEngines(m, []string{scheme}, engine.BuildOptions{
		Bits: 8, Streams: 2, StreamLen: 64, Serving: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.PrefixGroupedTrace(workload.PrefixGroupConfig{
		Groups: 4, RequestsPerGroup: 4,
		PrefixTokens: 32, TailTokens: 8,
		NewTokens: 6, Vocab: m.Cfg.Vocab,
	}, 4)
	ref := serve.DecodeUnbatched(m, engines[scheme], trace, 0, 7)

	// One injector drives both the backend submit hooks (transport,
	// stall, crash) and each scheduler's KV admission hook; the crash
	// budget kills exactly one replica mid-soak.
	inj := chaos.New(chaos.Config{
		Seed:          0xC405,
		TransportRate: 0.10,
		StallRate:     0.05,
		StallFor:      attemptTimeout + time.Second,
		MaxStalls:     2,
		CrashRate:     0.08,
		MaxCrashes:    1,
		KVExhaustRate: 0.25,
		MaxKVExhaust:  16,
	})
	var servers []*serve.Server
	var members []Replica
	for i := 0; i < replicas; i++ {
		srv, err := serve.New(serve.Config{
			Model: m, Engines: engines, DefaultScheme: scheme,
			MaxBatch: 8, QueueDepth: len(trace), PrefillChunk: 16,
			KVPageRows: pageRows, PrefixCache: true,
			Chaos: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Stop)
		servers = append(servers, srv)
		id := fmt.Sprintf("r%d", i)
		members = append(members, Replica{ID: id, Backend: InProc{Srv: srv, Chaos: inj, ID: id}})
	}
	r := startRouter(t, Config{
		Replicas: members, Policy: PolicyAffinity, PageRows: pageRows,
		ProbePeriod: 10 * time.Millisecond, ProbeFailures: 2,
		AttemptTimeout:   attemptTimeout,
		MaxAttempts:      12,
		RetryBackoff:     2 * time.Millisecond,
		JitterSeed:       11,
		BreakerThreshold: 2, BreakerCooldown: 40 * time.Millisecond,
	})
	rep := serve.RunLoad(r, serve.LoadConfig{
		Trace: trace, Scheme: scheme, SeedBase: 7,
		PoissonMean: 2 * time.Millisecond, ArrivalSeed: 5,
	})
	r.Stop()

	if rep.Failed > 0 {
		t.Fatalf("%d of %d requests failed under injected faults", rep.Failed, rep.Requests)
	}
	identtest.Equal(t, "chaos soak vs fault-free reference",
		identtest.Output{Tokens: rep.Outputs}, identtest.Output{Tokens: ref})
	for i, srv := range servers {
		srv.Stop()
		ss := srv.Metrics().Snapshot()
		if ss.KVPagesInUse != 0 || ss.KVPageAllocs != ss.KVPageFrees {
			t.Fatalf("replica r%d leaked KV pages: in-use %d, allocs %d, frees %d",
				i, ss.KVPagesInUse, ss.KVPageAllocs, ss.KVPageFrees)
		}
	}
	if inj.Stats().Total() == 0 {
		t.Fatal("no faults were injected; the soak exercised nothing")
	}
}
