package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tender/internal/chaos"
	"tender/internal/model"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// submitAll queues reqs in order on srv, failing the test on any refusal.
func submitAll(t *testing.T, srv *Server, reqs []Request) []*pending {
	t.Helper()
	ps := make([]*pending, len(reqs))
	for i, req := range reqs {
		p, err := srv.submit(context.Background(), req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ps[i] = p
	}
	return ps
}

// drive runs srv's iterations synchronously — no scheduler goroutine —
// until every request of ps has its Result, and returns them in order.
func drive(t *testing.T, srv *Server, ps []*pending) []Result {
	t.Helper()
	out := make([]Result, len(ps))
	done := make([]bool, len(ps))
	for left, iter := len(ps), 0; left > 0; iter++ {
		if iter == 100000 {
			t.Fatalf("%d requests undelivered after %d iterations", left, iter)
		}
		srv.iterate(srv.now())
		for i, p := range ps {
			if done[i] {
				continue
			}
			select {
			case out[i] = <-p.done:
				done[i] = true
				left--
			default:
			}
		}
	}
	return out
}

// smReq is one request the state-machine test submitted and its outcome.
type smReq struct {
	p      *pending
	req    Request
	cancel context.CancelFunc
	res    *Result
}

// TestSchedulerStateMachine drives iterate directly with seeded random
// operation sequences — greedy and sampled submissions (some with
// deadlines, some sharing prompt prefixes, some long enough to force
// prefix eviction and preemption), cancellations, clock jumps past
// deadlines, injected KV vetoes and step panics — then drains and stops.
// The pool is the one KV ledger, so the checks are on it: after each
// iteration's scheduling half the batch's outstanding page needs fit the
// pool's free pages; after every iteration the page counters balance
// (allocs − frees = in use ≤ cap), waiting requests hold no session and no
// pin, every request gets exactly one Result and leaves the scheduler when
// it does, no step fails but by an injected panic (a pool overrun would
// surface as one), and every output is the unbatched reference's (a prefix
// of it for a failed request). A stopped server holds no pages, and every
// prefix the scheduler evicted to reclaim pool memory freed at least one
// page. A failing run names its seed.
func TestSchedulerStateMachine(t *testing.T) {
	m := model.New(model.TinyConfig())
	refs := make(map[string][]int)
	ref := func(req Request) []int {
		key := fmt.Sprint(req.Prompt, req.MaxNewTokens, req.Temperature, req.Seed)
		if out, ok := refs[key]; ok {
			return out
		}
		out := DecodeUnbatched(m, model.Exact{}, []workload.RequestSpec{{Prompt: req.Prompt, NewTokens: req.MaxNewTokens}},
			req.Temperature, req.Seed)[0]
		refs[key] = out
		return out
	}
	var total Snapshot
	var reclaims int
	for seed := uint64(1); seed <= stateMachineSeeds; seed++ {
		if !t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			snap, n := runStateMachine(t, m, seed, ref)
			reclaims += n
			total.Completed += snap.Completed
			total.Preemptions += snap.Preemptions
			total.PrefixHits += snap.PrefixHits
			total.PrefixEvictions += snap.PrefixEvictions
			total.Expired += snap.Expired
			total.InternalErrors += snap.InternalErrors
			total.StageAdmissionHold.Count += snap.StageAdmissionHold.Count
		}) {
			return
		}
	}
	// The sequences must reach every path the invariants guard.
	t.Logf("completed %d, preempted %d, prefix hits %d, evictions %d (%d reclaiming), expired %d, panicked %d, held %d",
		total.Completed, total.Preemptions, total.PrefixHits, total.PrefixEvictions, reclaims,
		total.Expired, total.InternalErrors, total.StageAdmissionHold.Count)
	for name, n := range map[string]int64{
		"completions": total.Completed, "preemptions": total.Preemptions,
		"prefix hits": total.PrefixHits, "prefix evictions": total.PrefixEvictions,
		"expiries": total.Expired, "step panics": total.InternalErrors,
		"admission holds": total.StageAdmissionHold.Count, "reclaiming evictions": int64(reclaims),
	} {
		if n == 0 {
			t.Errorf("no %s across the sequences", name)
		}
	}
}

// runStateMachine runs one seed's sequence and returns the server's final
// metrics and how many prefixes the scheduler evicted to reclaim memory.
func runStateMachine(t *testing.T, m *model.Model, seed uint64, ref func(Request) []int) (Snapshot, int) {
	srv, err := New(Config{
		Model: m, Engines: map[string]model.Engine{"fp32": model.Exact{}},
		MaxBatch: 3, QueueDepth: 6, PrefillChunk: 5,
		KVBudgetRows: 48, KVPageRows: 8, PrefixCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fake clock for the scheduler, request stamps and metrics: only
	// the test advances it.
	now := srv.metrics.start
	srv.now = func() time.Time { return now }
	rng := tensor.NewRNG(seed)
	intn := rng.Intn
	// Shared prefixes straddle page boundaries, so hits mount mid-page
	// entries and exercise copy-on-write.
	prefixes := [][]int{
		workload.TokenStream(workload.Wiki, seed, 19, m.Cfg.Vocab),
		workload.TokenStream(workload.PTB, seed+100, 11, m.Cfg.Vocab),
	}
	var reqs []*smReq

	submit := func(promptLen, maxNew int) {
		var prompt []int
		if pre := prefixes[intn(len(prefixes))]; intn(3) > 0 && promptLen > len(pre) {
			prompt = append(append(prompt, pre...), workload.TokenStream(workload.PTB, rng.Uint64(), promptLen-len(pre), m.Cfg.Vocab)...)
		} else {
			prompt = workload.TokenStream(workload.Wiki, rng.Uint64(), promptLen, m.Cfg.Vocab)
		}
		req := Request{Prompt: prompt, MaxNewTokens: maxNew, Seed: rng.Uint64()}
		if intn(2) == 0 {
			req.Temperature = 0.8
		}
		if intn(4) == 0 {
			req.Deadline = now.Add(time.Duration(1+intn(20)) * time.Millisecond)
		}
		ctx, cancel := context.WithCancel(context.Background())
		p, err := srv.submit(ctx, req)
		switch {
		case err == nil:
			reqs = append(reqs, &smReq{p: p, req: req, cancel: cancel})
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrKVBudget), errors.Is(err, ErrDraining):
			cancel()
		default:
			t.Fatalf("submit: %v", err)
		}
	}

	collect := func(what string) {
		for _, r := range reqs {
			select {
			case res := <-r.p.done:
				if r.res != nil {
					t.Fatalf("%s: request %d delivered twice", what, r.p.id)
				}
				r.res = &res
				r.cancel()
				if errors.Is(res.Err, ErrInternal) && !strings.Contains(res.Err.Error(), "chaos: injected") {
					t.Fatalf("%s: request %d failed by itself: %v", what, r.p.id, res.Err)
				}
				checkResult(t, r, ref(r.req))
			default:
			}
		}
		checkScheduler(t, srv, reqs, what)
	}
	step := func(what string) {
		srv.schedule(now)
		if owed, free := srv.owed(), srv.kvPool.Free(); owed > free {
			t.Fatalf("%s: the batch is owed %d pages, the pool has %d free", what, owed, free)
		}
		srv.execute()
		srv.cfg.Chaos = nil
		collect(what)
	}

	for op := 0; op < 150; op++ {
		switch k := intn(20); {
		case k < 7:
			submit(2+intn(24), 1+intn(10))
		case k < 8: // long prompt: evicts cached prefixes, preempts the batch
			submit(36+intn(4), 1+intn(8))
		case k < 10:
			if len(reqs) > 0 {
				reqs[intn(len(reqs))].cancel()
			}
		case k < 12:
			now = now.Add(time.Duration(1+intn(10)) * time.Millisecond)
		case k < 13:
			srv.cfg.Chaos = chaos.New(chaos.Config{Seed: rng.Uint64(), KVExhaustRate: 1})
		case k < 14:
			srv.cfg.Chaos = chaos.New(chaos.Config{Seed: rng.Uint64(), PanicRate: 1})
		}
		step(fmt.Sprint("op ", op))
	}

	// Drain: new submissions are refused, accepted ones run on — and,
	// for half the seeds, Stop cuts in while some are still in flight.
	srv.BeginDrain()
	submit(4, 2)
	for i := 0; i < 400 && (seed%2 == 0 || i < 3); i++ {
		step(fmt.Sprint("drain ", i))
	}
	srv.Stop() // closes stop; no scheduler goroutine runs its shutdown
	srv.shutdown()
	collect("stop")
	for _, r := range reqs {
		if r.res == nil {
			t.Fatalf("request %d never got a Result", r.p.id)
		}
		if seed%2 == 0 && errors.Is(r.res.Err, ErrStopped) {
			t.Fatalf("request %d stopped although the drain ran to completion", r.p.id)
		}
	}
	if n := srv.kvPool.InUse(); n != 0 {
		t.Fatalf("stopped server holds %d pool pages", n)
	}
	if srv.idleReclaims != 0 {
		t.Fatalf("%d of %d reclaiming prefix evictions freed no page", srv.idleReclaims, srv.reclaims)
	}
	return srv.Metrics().Snapshot(), srv.reclaims
}

// checkScheduler asserts the scheduler's accounting invariants between
// iterations.
func checkScheduler(t *testing.T, srv *Server, reqs []*smReq, what string) {
	t.Helper()
	allocs, frees := srv.kvPool.Counters()
	inUse := srv.kvPool.InUse()
	if allocs-frees != int64(inUse) || inUse > srv.kvPool.Cap() {
		t.Fatalf("%s: %d page allocs − %d frees, %d in use, cap %d", what, allocs, frees, inUse, srv.kvPool.Cap())
	}
	scheduled := make(map[*pending]bool)
	for _, a := range slices.Concat(srv.batch, srv.waiting) {
		if scheduled[a.p] {
			t.Fatalf("%s: request %d is in the batch or wait list twice", what, a.p.id)
		}
		scheduled[a.p] = true
	}
	for _, r := range reqs {
		if r.res != nil && scheduled[r.p] {
			t.Fatalf("%s: delivered request %d is still scheduled", what, r.p.id)
		}
	}
	for _, a := range srv.waiting {
		if a.sess != nil || a.entry != nil {
			t.Fatalf("%s: waiting request %d holds KV (session %v, entry %v)",
				what, a.p.id, a.sess != nil, a.entry != nil)
		}
	}
}

// checkResult asserts a delivered request's tokens are the unbatched
// reference's: all of them on success, a prefix of them otherwise.
func checkResult(t *testing.T, r *smReq, want []int) {
	t.Helper()
	got := r.res.Tokens
	if r.res.Err == nil && len(got) != len(want) || len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
		t.Fatalf("request %d (err %v): tokens %v, unbatched reference %v", r.p.id, r.res.Err, got, want)
	}
}
