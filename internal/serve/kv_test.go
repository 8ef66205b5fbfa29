package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/workload"
)

// preloadAndRun queues every trace request, in trace order, on a server
// that is not yet running, starts it, and collects the outputs before
// stopping it. Preloading makes the admission order — and therefore the
// preemption schedule — independent of goroutine timing, so the KV tests
// exercise deterministic pressure.
func preloadAndRun(t *testing.T, srv *Server, trace []workload.RequestSpec, temp float64, seedBase uint64) ([][]int, Snapshot) {
	t.Helper()
	reqs := make([]Request, len(trace))
	for i, spec := range trace {
		reqs[i] = Request{
			Prompt: spec.Prompt, MaxNewTokens: spec.NewTokens,
			Temperature: temp, Seed: seedBase + uint64(i),
		}
	}
	queued := submitAll(t, srv, reqs)
	srv.Start()
	outputs := make([][]int, len(trace))
	for i, p := range queued {
		r := <-p.done
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.PrefillTokens != len(trace[i].Prompt) {
			t.Errorf("request %d: PrefillTokens %d, want prompt length %d (resume re-prefills must not inflate it)",
				i, r.PrefillTokens, len(trace[i].Prompt))
		}
		outputs[i] = r.Tokens
	}
	snap := srv.Metrics().Snapshot()
	srv.Stop()
	return outputs, snap
}

// kvPressureTrace builds requests sized so that two fit the budget at
// admission but not through decode: growth past the shared pool forces
// the scheduler to preempt and later resume.
func kvPressureTrace(m *model.Model, n int) []workload.RequestSpec {
	trace := make([]workload.RequestSpec, n)
	for i := range trace {
		trace[i] = workload.RequestSpec{
			Prompt:    workload.TokenStream(workload.Wiki, 60+uint64(i), 20, m.Cfg.Vocab),
			NewTokens: 12,
		}
	}
	return trace
}

// TestKVPreemptionBitIdentical is the preemption invariant: under a KV
// budget tight enough to evict a mid-decode request, every request —
// including the preempted-then-resumed one — produces exactly the tokens
// of an unpressured, unbatched run. Greedy and sampled (the retained RNG
// stream must survive preemption).
func TestKVPreemptionBitIdentical(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := map[string]model.Engine{"fp32": model.Exact{}}
	trace := kvPressureTrace(m, 3)
	for _, temp := range []float64{0, 0.8} {
		name := "greedy"
		if temp > 0 {
			name = "sampled"
		}
		t.Run(name, func(t *testing.T) {
			ref := DecodeUnbatched(m, model.Exact{}, trace, temp, 9)
			srv, err := New(Config{
				Model: m, Engines: engines, MaxBatch: 4, QueueDepth: 8,
				PrefillChunk: 4,
				KVBudgetRows: 48, KVPageRows: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			outputs, snap := preloadAndRun(t, srv, trace, temp, 9)
			for i := range trace {
				if len(outputs[i]) != len(ref[i]) {
					t.Fatalf("request %d: %d tokens, want %d", i, len(outputs[i]), len(ref[i]))
				}
				for j := range ref[i] {
					if outputs[i][j] != ref[i][j] {
						t.Fatalf("request %d token %d: %d != unpressured %d", i, j, outputs[i][j], ref[i][j])
					}
				}
			}
			if snap.Preemptions < 1 {
				t.Fatalf("budget pressure never preempted (snapshot %+v)", snap)
			}
			if snap.KVPeakOccupancyRows > int64(snap.KVBudgetRows) {
				t.Fatalf("KV occupancy %d exceeded budget %d", snap.KVPeakOccupancyRows, snap.KVBudgetRows)
			}
			if snap.KVPagesInUse != 0 || snap.KVPageAllocs != snap.KVPageFrees {
				t.Fatalf("pages leaked: %d in use, %d allocs vs %d frees",
					snap.KVPagesInUse, snap.KVPageAllocs, snap.KVPageFrees)
			}
			if snap.KVPageAllocs == 0 {
				t.Fatal("paged sessions never touched the pool")
			}
		})
	}
}

// TestKVBudgetRejectsOversized: a request whose worst-case KV footprint
// exceeds the entire budget fails fast with ErrKVBudget.
func TestKVBudgetRejectsOversized(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := map[string]model.Engine{"fp32": model.Exact{}}
	srv, err := New(Config{
		Model: m, Engines: engines, KVBudgetRows: 32, KVPageRows: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	long := workload.TokenStream(workload.Wiki, 1, 30, m.Cfg.Vocab)
	if _, err := srv.Generate(context.Background(), Request{Prompt: long, MaxNewTokens: 20}); !errors.Is(err, ErrKVBudget) {
		t.Fatalf("want ErrKVBudget, got %v", err)
	}
	// A request that fits still runs.
	small := workload.TokenStream(workload.Wiki, 2, 8, m.Cfg.Vocab)
	if _, err := srv.Generate(context.Background(), Request{Prompt: small, MaxNewTokens: 4}); err != nil {
		t.Fatalf("in-budget request failed: %v", err)
	}
	// Peak occupancy is prompt + maxNew − 1 (the last emitted token is
	// never appended): a request filling the budget exactly must be
	// accepted, one more decode token must not.
	edge := workload.TokenStream(workload.Wiki, 3, 16, m.Cfg.Vocab)
	if _, err := srv.Generate(context.Background(), Request{Prompt: edge, MaxNewTokens: 17}); err != nil {
		t.Fatalf("exact-budget request (peak 32 of 32 rows) failed: %v", err)
	}
	if _, err := srv.Generate(context.Background(), Request{Prompt: edge, MaxNewTokens: 18}); !errors.Is(err, ErrKVBudget) {
		t.Fatalf("one-over-budget request: want ErrKVBudget, got %v", err)
	}
}

// TestPagedBeatsContiguousConcurrency mirrors the benchmark claim: under
// a KV row budget of two worst-case (MaxSeq) sessions — all a contiguous
// preallocating layout could ever admit — the paged scheduler runs at
// least twice that many concurrent sessions, with outputs identical to the
// unbatched reference.
func TestPagedBeatsContiguousConcurrency(t *testing.T) {
	m := model.New(model.TinyConfig()) // MaxSeq 64
	engines := map[string]model.Engine{"fp32": model.Exact{}}
	budget := 2 * m.Cfg.MaxSeq
	trace := make([]workload.RequestSpec, 6)
	for i := range trace {
		trace[i] = workload.RequestSpec{
			Prompt:    workload.TokenStream(workload.PTB, 80+uint64(i), 8, m.Cfg.Vocab),
			NewTokens: 4,
		}
	}
	ref := DecodeUnbatched(m, model.Exact{}, trace, 0, 5)
	srv, err := New(Config{
		Model: m, Engines: engines, MaxBatch: 8, QueueDepth: 8,
		KVBudgetRows: budget, KVPageRows: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	outputs, snap := preloadAndRun(t, srv, trace, 0, 5)
	identtest.Equal(t, "paged under a KV budget",
		identtest.Output{Tokens: outputs}, identtest.Output{Tokens: ref})
	if want := int64(2 * budget / m.Cfg.MaxSeq); snap.PeakActiveSessions < want {
		t.Fatalf("paged peak %d sessions, want ≥ 2 × budget/MaxSeq = %d", snap.PeakActiveSessions, want)
	}
}

// TestPoissonArrivals: the schedule is deterministic in its seed, ordered,
// and roughly matches the requested mean; RunLoad's open-loop mode
// delivers bit-identical outputs to the unbatched reference.
func TestPoissonArrivals(t *testing.T) {
	a := PoissonArrivals(64, 5*time.Millisecond, 7)
	b := PoissonArrivals(64, 5*time.Millisecond, 7)
	c := PoissonArrivals(64, 5*time.Millisecond, 8)
	var prev time.Duration
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = a[i]
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	mean := a[len(a)-1] / time.Duration(len(a))
	if mean < time.Millisecond || mean > 25*time.Millisecond {
		t.Fatalf("empirical mean gap %v implausible for 5ms", mean)
	}

	m := model.New(model.TinyConfig())
	engines, err := buildEngines(m, []string{"tender"}, engine.BuildOptions{Bits: 8, Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	trace := tinyTrace(m, 8, 13)
	ref := DecodeUnbatched(m, engines["tender"], trace, 0, 21)
	srv := startServer(t, Config{
		Model: m, Engines: engines, MaxBatch: 4, QueueDepth: len(trace),
		KVBudgetRows: 128, KVPageRows: 16,
	})
	rep := RunLoad(srv, LoadConfig{
		Trace: trace, SeedBase: 21,
		PoissonMean: time.Millisecond, ArrivalSeed: 3,
	})
	if rep.Failed != 0 {
		t.Fatalf("%d requests failed under Poisson arrivals", rep.Failed)
	}
	for i := range trace {
		for j := range ref[i] {
			if rep.Outputs[i][j] != ref[i][j] {
				t.Fatalf("request %d token %d differs under Poisson arrivals", i, j)
			}
		}
	}
	// Gauges return to zero once the burst drains: the iteration that
	// retires the last request resets them, and Stop returns only after
	// the scheduler goroutine has finished that iteration.
	srv.Stop()
	if snap := srv.Metrics().Snapshot(); snap.ActiveSessions != 0 || snap.KVOccupancyRows != 0 || snap.KVPagesInUse != 0 {
		t.Fatalf("idle server still reports load: %+v", snap)
	}
}
