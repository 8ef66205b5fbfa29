package router

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/serve"
	"tender/internal/workload"
)

// --- ring + key unit tests -------------------------------------------------

func TestRingStableUnderMembershipChange(t *testing.T) {
	full := NewRing([]string{"a", "b", "c"}, 64)
	sans := NewRing([]string{"a", "b"}, 64)
	moved := 0
	for k := uint64(0); k < 4096; k++ {
		key := k * 0x9e3779b97f4a7c15
		was := full.Owner(key)
		now := sans.Owner(key)
		if was == "c" {
			moved++
			if now == "c" {
				t.Fatalf("key %d still owned by removed replica", key)
			}
		} else if now != was {
			t.Fatalf("key %d moved %s→%s though its owner never left", key, was, now)
		}
		// Walking the full ring past c's points must agree with the ring
		// rebuilt without c — the failover path and the rebuild converge.
		if got := full.OwnerExcluding(key, map[string]bool{"c": true}); got != now {
			t.Fatalf("OwnerExcluding=%s, rebuilt ring says %s", got, now)
		}
	}
	if moved == 0 {
		t.Fatal("replica c owned no keys")
	}
	if moved > 4096*2/3 {
		t.Fatalf("removing 1 of 3 replicas moved %d/4096 keys", moved)
	}
	if got := NewRing(nil, 64).Owner(1); got != "" {
		t.Fatalf("empty ring owner = %q", got)
	}
}

func TestAffinityKeyPrefixChunks(t *testing.T) {
	const pageRows = 8
	prefix := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	a := append(append([]int(nil), prefix...), 40, 41, 42)
	b := append(append([]int(nil), prefix...), 50, 51)
	if AffinityKey(a, pageRows, 4) != AffinityKey(b, pageRows, 4) {
		t.Fatal("same page-aligned prefix, different keys")
	}
	c := append([]int(nil), a...)
	c[0]++ // diverge inside the first page
	if AffinityKey(a, pageRows, 4) == AffinityKey(c, pageRows, 4) {
		t.Fatal("different first page, same key")
	}
	// The chunk cap makes divergence past it invisible to the key.
	long1 := make([]int, 6*pageRows)
	long2 := make([]int, 6*pageRows)
	for i := range long1 {
		long1[i] = i
		long2[i] = i
	}
	long2[5*pageRows] = 999
	if AffinityKey(long1, pageRows, 4) != AffinityKey(long2, pageRows, 4) {
		t.Fatal("divergence past the chunk cap changed the key")
	}
	// Short prompts (no full page) hash all tokens.
	if AffinityKey([]int{1, 2}, pageRows, 4) == AffinityKey([]int{1, 3}, pageRows, 4) {
		t.Fatal("sub-page prompts collapsed to one key")
	}
	// Scatter differs from affinity exactly when tails differ.
	if ScatterKey(a) == ScatterKey(b) {
		t.Fatal("scatter key ignored the tail")
	}
}

// --- in-process fixture ----------------------------------------------------

const testPageRows = 8

func testEngines(t *testing.T, m *model.Model, specs []string) map[string]model.Engine {
	t.Helper()
	engines, err := engine.BuildEngines(m, specs, engine.BuildOptions{
		Bits: 8, Streams: 2, StreamLen: 32, Serving: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engines
}

// startReplica builds and starts one serving replica with its own paged
// pool and prefix cache over the shared engines.
func startReplica(t *testing.T, m *model.Model, engines map[string]model.Engine, def string) *serve.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Model: m, Engines: engines, DefaultScheme: def,
		MaxBatch: 4, PrefillChunk: 8,
		KVPageRows:  testPageRows,
		PrefixCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv
}

func startRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Stop)
	return r
}

func groupedTrace(m *model.Model) []workload.RequestSpec {
	return workload.PrefixGroupedTrace(workload.PrefixGroupConfig{
		Groups: 4, RequestsPerGroup: 8,
		PrefixTokens: 2 * testPageRows, TailTokens: 3,
		NewTokens: 3, Vocab: m.Cfg.Vocab,
	}, 11)
}

// --- routing behaviour -----------------------------------------------------

// TestAffinityPreservesAggregateHitRate is the tentpole invariant: over
// a prefix-grouped trace, affinity routing across 3 sharded replicas
// keeps the fleet's aggregate prefix hit rate equal to a single
// shared-cache replica's (each tenant's pages live whole on one shard),
// while scatter routing splits every tenant's cache N ways and degrades.
func TestAffinityPreservesAggregateHitRate(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := testEngines(t, m, []string{"fp32"})
	trace := groupedTrace(m)

	// Single shared-cache replica: the reuse ceiling.
	single := startReplica(t, m, engines, "fp32")
	rep := serve.RunLoad(single, serve.LoadConfig{Trace: trace, Clients: 1})
	if rep.Failed != 0 {
		t.Fatalf("single: %d failed", rep.Failed)
	}
	snap := single.Metrics().Snapshot()
	singleRate := float64(snap.PrefixHits) / float64(snap.PrefixHits+snap.PrefixMisses)

	run := func(policy Policy) (float64, Snapshot) {
		var reps []Replica
		for i := 0; i < 3; i++ {
			reps = append(reps, Replica{
				ID:      fmt.Sprintf("r%d", i),
				Backend: InProc{Srv: startReplica(t, m, engines, "fp32")},
			})
		}
		r := startRouter(t, Config{Replicas: reps, Policy: policy, PageRows: testPageRows})
		lr := serve.RunLoad(r, serve.LoadConfig{Trace: trace, Clients: 1})
		if lr.Failed != 0 {
			t.Fatalf("%v: %d failed", policy, lr.Failed)
		}
		rs := r.Snapshot()
		rate, ok := rs.AggregatePrefixHitRate()
		if !ok {
			t.Fatalf("%v: no prefix lookups recorded", policy)
		}
		return rate, rs
	}

	affinityRate, affSnap := run(PolicyAffinity)
	scatterRate, _ := run(PolicyScatter)

	if affinityRate < 0.9*singleRate {
		t.Fatalf("affinity aggregate hit rate %.3f < 0.9× single-replica %.3f", affinityRate, singleRate)
	}
	if scatterRate >= affinityRate {
		t.Fatalf("scatter hit rate %.3f did not degrade below affinity %.3f", scatterRate, affinityRate)
	}
	// Affinity decisions must all be affinity-reasoned (no spill configured,
	// no failover in a healthy run).
	var affinity, other int64
	for _, rs := range affSnap.Replicas {
		affinity += rs.RoutedAffinity
		other += rs.RoutedSpill + rs.RoutedScatter + rs.RoutedFailover
	}
	if int(affinity) != len(trace) || other != 0 {
		t.Fatalf("affinity run routed %d affinity / %d other, want %d/0", affinity, other, len(trace))
	}
}

// TestFailoverBitIdenticalEveryScheme kills one of three replicas and
// asserts every request still completes with tokens bit-identical to the
// unbatched single-threaded reference — for every registry scheme the
// serving build accepts (all but olive). The dead replica is stopped while
// still listed Up, so requests it owns deterministically hit ErrStopped
// and fail over.
func TestFailoverBitIdenticalEveryScheme(t *testing.T) {
	m := model.New(model.TinyConfig())
	names := slices.DeleteFunc(engine.SchemeNames(), func(n string) bool { return n == "olive" })
	engines := testEngines(t, m, names)
	trace := workload.PrefixGroupedTrace(workload.PrefixGroupConfig{
		Groups: 3, RequestsPerGroup: 3,
		PrefixTokens: testPageRows, TailTokens: 2,
		NewTokens: 3, Vocab: m.Cfg.Vocab,
	}, 5)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			ref := serve.DecodeUnbatched(m, engines[name], trace, 0, 7)
			var reps []Replica
			var victim *serve.Server
			for i := 0; i < 3; i++ {
				srv := startReplica(t, m, engines, name)
				if i == 1 {
					victim = srv
				}
				reps = append(reps, Replica{ID: fmt.Sprintf("r%d", i), Backend: InProc{Srv: srv}})
			}
			r := startRouter(t, Config{Replicas: reps, PageRows: testPageRows})
			victim.Stop() // dies while the router still believes it is Up
			lr := serve.RunLoad(r, serve.LoadConfig{Trace: trace, Clients: 2, Scheme: name, SeedBase: 7})
			if lr.Failed != 0 {
				t.Fatalf("%d requests failed after replica kill", lr.Failed)
			}
			for i := range trace {
				if len(lr.Outputs[i]) != len(ref[i]) {
					t.Fatalf("request %d: got %d tokens, want %d", i, len(lr.Outputs[i]), len(ref[i]))
				}
				for j := range ref[i] {
					if lr.Outputs[i][j] != ref[i][j] {
						t.Fatalf("request %d token %d: failover %d != reference %d", i, j, lr.Outputs[i][j], ref[i][j])
					}
				}
			}
			if st := r.States()["r1"]; st != StateDown {
				t.Fatalf("killed replica state = %v, want down", st)
			}
			if n := r.Snapshot().Failovers; n == 0 {
				t.Fatal("no request failed over; the kill exercised nothing")
			}
		})
	}
}

// TestDrainAndRestore walks the state machine end to end: drain takes
// the replica out of the ring and its server refuses new work; traffic
// keeps flowing on the survivors; Restore with a fresh backend puts the
// shard back in rotation.
func TestDrainAndRestore(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := testEngines(t, m, []string{"fp32"})
	trace := groupedTrace(m)

	r0 := startReplica(t, m, engines, "fp32")
	r1 := startReplica(t, m, engines, "fp32")
	r := startRouter(t, Config{Replicas: []Replica{
		{ID: "r0", Backend: InProc{Srv: r0}},
		{ID: "r1", Backend: InProc{Srv: r1}},
	}, PageRows: testPageRows})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Drain(ctx, "r0"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := r.States()["r0"]; st != StateDown {
		t.Fatalf("drained replica state = %v, want down", st)
	}
	// The drained server itself refuses new submissions...
	if _, err := r0.Generate(context.Background(), serve.Request{Prompt: []int{1, 2}, MaxNewTokens: 1}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("drained server error = %v, want ErrDraining", err)
	}
	// ...while the router serves everything on the survivor.
	lr := serve.RunLoad(r, serve.LoadConfig{Trace: trace, Clients: 2})
	if lr.Failed != 0 {
		t.Fatalf("%d requests failed after drain", lr.Failed)
	}
	snap := r.Snapshot()
	for _, rs := range snap.Replicas {
		if rs.ID == "r0" && rs.RoutedAffinity+rs.RoutedFailover+rs.RoutedScatter+rs.RoutedSpill != 0 {
			t.Fatalf("drained replica still received traffic: %+v", rs)
		}
	}
	if !r.Ready() {
		t.Fatal("router not ready with one replica up")
	}

	// Recovery: a drained serve.Server cannot restart, so restore swaps in
	// a fresh backend under the same identity and the ring rebalances.
	fresh := startReplica(t, m, engines, "fp32")
	if err := r.Restore("r0", InProc{Srv: fresh}); err != nil {
		t.Fatal(err)
	}
	if st := r.States()["r0"]; st != StateUp {
		t.Fatalf("restored replica state = %v, want up", st)
	}
	// Many distinct prompts → many distinct ring keys, so the restored
	// replica deterministically owns some of them again.
	spread := workload.RequestTrace(workload.TraceConfig{
		Requests: 24, Vocab: m.Cfg.Vocab,
		MinPrompt: 4, MaxPrompt: 20, MinNew: 2, MaxNew: 3,
	}, 23)
	lr = serve.RunLoad(r, serve.LoadConfig{Trace: spread, Clients: 2})
	if lr.Failed != 0 {
		t.Fatalf("%d requests failed after restore", lr.Failed)
	}
	var restoredGot int64
	for _, rs := range r.Snapshot().Replicas {
		if rs.ID == "r0" {
			restoredGot = rs.RoutedAffinity + rs.RoutedSpill + rs.RoutedScatter + rs.RoutedFailover
		}
	}
	if restoredGot == 0 {
		t.Fatal("restored replica received no traffic")
	}
}

// TestDrainAllRejectsThenEmpty: after DrainAll, no replica accepts work
// and the router rejects with ErrNoReplicas.
func TestDrainAllRejectsThenEmpty(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := testEngines(t, m, []string{"fp32"})
	r := startRouter(t, Config{Replicas: []Replica{
		{ID: "a", Backend: InProc{Srv: startReplica(t, m, engines, "fp32")}},
		{ID: "b", Backend: InProc{Srv: startReplica(t, m, engines, "fp32")}},
	}, PageRows: testPageRows})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.DrainAll(ctx); err != nil {
		t.Fatalf("drain all: %v", err)
	}
	if r.Ready() {
		t.Fatal("router ready after draining every replica")
	}
	_, err := r.Generate(context.Background(), serve.Request{Prompt: []int{1}, MaxNewTokens: 1})
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("error = %v, want ErrNoReplicas", err)
	}
}

// TestProberMarksDownAndRestores: the background prober takes an
// unhealthy replica out of rotation after the failure threshold and puts
// it back when the probe recovers.
func TestProberMarksDownAndRestores(t *testing.T) {
	healthy := &atomic2{v: 1}
	fb := &fakeBackend{healthy: healthy}
	r := startRouter(t, Config{
		Replicas:      []Replica{{ID: "x", Backend: fb}},
		ProbePeriod:   2 * time.Millisecond,
		ProbeFailures: 2,
	})
	healthy.set(0)
	waitFor(t, func() bool { return r.States()["x"] == StateDown }, "prober never marked x down")
	healthy.set(1)
	waitFor(t, func() bool { return r.States()["x"] == StateUp }, "prober never restored x")
}

// TestRouterConcurrencyHammer races Generates against drains, restores
// and the prober; run under -race it is the router's lock discipline
// test. Every submitted request must either complete or fail with a
// router/serve error — never hang.
func TestRouterConcurrencyHammer(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := testEngines(t, m, []string{"fp32"})
	trace := groupedTrace(m)
	r := startRouter(t, Config{Replicas: []Replica{
		{ID: "a", Backend: InProc{Srv: startReplica(t, m, engines, "fp32")}},
		{ID: "b", Backend: InProc{Srv: startReplica(t, m, engines, "fp32")}},
		{ID: "c", Backend: InProc{Srv: startReplica(t, m, engines, "fp32")}},
	}, PageRows: testPageRows, SpillMargin: 2, ProbePeriod: time.Millisecond})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				spec := trace[(w*16+i)%len(trace)]
				_, err := r.Generate(context.Background(), serve.Request{Prompt: spec.Prompt, MaxNewTokens: spec.NewTokens})
				if err != nil && !errors.Is(err, ErrNoReplicas) {
					panic(fmt.Sprintf("unexpected generate error: %v", err))
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := r.Drain(ctx, "b"); err != nil {
			panic(fmt.Sprintf("drain: %v", err))
		}
		if err := r.Restore("b", InProc{Srv: startReplica(t, m, engines, "fp32")}); err != nil {
			panic(fmt.Sprintf("restore: %v", err))
		}
	}()
	wg.Wait()
	snap := r.Snapshot()
	if snap.Requests != 64 {
		t.Fatalf("router saw %d requests, want 64", snap.Requests)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tender_router_requests_total", `tender_router_routed_total{replica="a",reason="affinity"}`} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("prometheus export missing %s:\n%s", want, b.String())
		}
	}
}

// --- helpers ---------------------------------------------------------------

type atomic2 struct {
	mu sync.Mutex
	v  int
}

func (a *atomic2) set(v int) { a.mu.Lock(); a.v = v; a.mu.Unlock() }
func (a *atomic2) get() int  { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// fakeBackend is a controllable backend for prober tests.
type fakeBackend struct {
	healthy *atomic2
}

func (f *fakeBackend) Generate(ctx context.Context, req serve.Request) (serve.Result, error) {
	if f.healthy.get() == 0 {
		return serve.Result{}, ErrReplicaUnreachable
	}
	return serve.Result{Tokens: []int{1}}, nil
}
func (f *fakeBackend) Snapshot() (serve.Snapshot, bool) {
	return serve.Snapshot{}, f.healthy.get() == 1
}
func (f *fakeBackend) Healthy() bool                   { return f.healthy.get() == 1 }
func (f *fakeBackend) Drain(ctx context.Context) error { return nil }

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}
