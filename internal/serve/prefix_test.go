package serve

import (
	"testing"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/workload"
)

// sharedPrefixTrace builds requests over one common prefix: exact repeats,
// shared-prefix/distinct-tail prompts whose lengths straddle the page
// boundary, and one unrelated prompt. prefixLen should end mid-page so
// hits exercise the copy-on-write path.
func sharedPrefixTrace(m *model.Model, prefixLen, n int, seed uint64) []workload.RequestSpec {
	prefix := workload.TokenStream(workload.Wiki, seed, prefixLen, m.Cfg.Vocab)
	trace := make([]workload.RequestSpec, n)
	for i := range trace {
		var prompt []int
		switch {
		case i%3 == 0: // exact repeat of the shared prompt
			prompt = append([]int(nil), prefix...)
		case i%3 == 1: // shared prefix, unique tail
			tail := workload.TokenStream(workload.PTB, seed+uint64(i), 1+i%4, m.Cfg.Vocab)
			prompt = append(append([]int(nil), prefix...), tail...)
		default: // unrelated prompt
			prompt = workload.TokenStream(workload.PTB, 1000+seed+uint64(i), prefixLen/2+i%3, m.Cfg.Vocab)
		}
		trace[i] = workload.RequestSpec{Prompt: prompt, NewTokens: 4 + i%3}
	}
	return trace
}

// runTwice replays the trace twice against one server — the first pass
// populates the prefix index, the second hits it — and asserts every
// output of both passes matches the unbatched reference exactly.
func runTwice(t *testing.T, srv *Server, trace []workload.RequestSpec, ref [][]int, scheme string, temp float64, seedBase uint64) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		rep := RunLoad(srv, LoadConfig{
			Trace: trace, Clients: 4, Scheme: scheme,
			Temperature: temp, SeedBase: seedBase,
		})
		if rep.Failed != 0 {
			t.Fatalf("pass %d: %d requests failed", pass, rep.Failed)
		}
		for i := range trace {
			if len(rep.Outputs[i]) != len(ref[i]) {
				t.Fatalf("pass %d request %d: %d tokens, want %d", pass, i, len(rep.Outputs[i]), len(ref[i]))
			}
			for j := range ref[i] {
				if rep.Outputs[i][j] != ref[i][j] {
					t.Fatalf("pass %d request %d token %d: %d != cold-prefill %d",
						pass, i, j, rep.Outputs[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestPrefixServeBitIdenticalEveryScheme is the serving half of the
// tentpole invariant: with the prefix cache on, every hosted scheme
// produces exactly the tokens of the cold unbatched reference on a
// shared-prefix workload and actually hits the cache. The serving build
// must refuse exactly row-coupled olive.
func TestPrefixServeBitIdenticalEveryScheme(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines, names := servableEngines(t, m, append(engine.SchemeNames(), "tender:int", "uniform:gran=tensor"))
	trace := sharedPrefixTrace(m, 17, 6, 41)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			ref := DecodeUnbatched(m, engines[name], trace, 0, 11)
			srv := startServer(t, Config{
				Model: m, Engines: engines, DefaultScheme: name,
				MaxBatch: 4, PrefillChunk: 5,
				KVPageRows: 8, PrefixCache: true,
			})
			runTwice(t, srv, trace, ref, name, 0, 11)
			snap := srv.Metrics().Snapshot()
			if snap.PrefixHits == 0 || snap.PrefillTokensSkipped == 0 {
				t.Fatalf("no prefix hits on a shared-prefix workload: %+v", snap)
			}
			if snap.PrefixCachedRows == 0 || snap.PrefixSharedPages == 0 {
				t.Fatalf("cache retains nothing after hits: %+v", snap)
			}
		})
	}
}

// TestPrefixSampledAndPerRequestPaths repeats the invariant for greedy
// and sampled decoding: both must match the cold per-request reference
// bit for bit while actually hitting the cache.
func TestPrefixSampledAndPerRequestPaths(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines, err := buildEngines(m, []string{"fp32", "tender"}, engine.BuildOptions{Bits: 8, Streams: 2, StreamLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	trace := sharedPrefixTrace(m, 17, 6, 83)
	for _, name := range []string{"fp32", "tender"} {
		for _, temp := range []float64{0, 0.8} {
			ref := DecodeUnbatched(m, engines[name], trace, temp, 29)
			srv := startServer(t, Config{
				Model: m, Engines: engines, DefaultScheme: name,
				MaxBatch: 4, PrefillChunk: 6,
				KVPageRows: 8, PrefixCache: true,
			})
			runTwice(t, srv, trace, ref, name, temp, 29)
			if snap := srv.Metrics().Snapshot(); snap.PrefixHits == 0 {
				t.Fatalf("%s temp=%v: no prefix hits", name, temp)
			}
		}
	}
}

// TestPrefixEvictionUnderTightBudget: with a KV budget too small to retain
// every completed prompt's prefix, admission evicts unreferenced cached
// prefixes LRU-first instead of holding requests; outputs stay exact, the
// budget is never exceeded, and a stopped server holds zero pages.
func TestPrefixEvictionUnderTightBudget(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := map[string]model.Engine{"fp32": model.Exact{}}
	// Five distinct 20-token prompts plus a repeat of the last one: each
	// completed prefill donates ~24 rows, so a 64-row budget forces
	// evictions by the third admission while the repeat still hits.
	trace := make([]workload.RequestSpec, 6)
	for i := range trace {
		seed := uint64(500 + i)
		if i == len(trace)-1 {
			seed = uint64(500 + i - 1)
		}
		trace[i] = workload.RequestSpec{
			Prompt:    workload.TokenStream(workload.Wiki, seed, 20, m.Cfg.Vocab),
			NewTokens: 6,
		}
	}
	ref := DecodeUnbatched(m, model.Exact{}, trace, 0, 3)
	srv, err := New(Config{
		Model: m, Engines: engines, MaxBatch: 1, QueueDepth: len(trace),
		PrefillChunk: 8, KVBudgetRows: 64, KVPageRows: 8, PrefixCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	rep := RunLoad(srv, LoadConfig{Trace: trace, Clients: 1, SeedBase: 3})
	if rep.Failed != 0 {
		t.Fatalf("%d requests failed", rep.Failed)
	}
	for i := range trace {
		for j := range ref[i] {
			if rep.Outputs[i][j] != ref[i][j] {
				t.Fatalf("request %d token %d differs under eviction pressure", i, j)
			}
		}
	}
	snap := srv.Metrics().Snapshot()
	if snap.PrefixEvictions == 0 {
		t.Fatalf("tight budget never evicted a cached prefix: %+v", snap)
	}
	if snap.PrefixHits == 0 {
		t.Fatalf("repeated prompt never hit: %+v", snap)
	}
	if snap.KVPeakOccupancyRows > int64(snap.KVBudgetRows) {
		t.Fatalf("KV occupancy %d exceeded budget %d", snap.KVPeakOccupancyRows, snap.KVBudgetRows)
	}
	srv.Stop() // shutdown flushes the caches
	after := srv.Metrics().Snapshot()
	if after.KVPagesInUse != 0 || after.KVPageAllocs != after.KVPageFrees {
		t.Fatalf("pages leaked after shutdown: %+v", after)
	}
}

// TestPrefixPreemptionRefcountStress drives preemption, resume and prefix
// sharing against one tight pool (the -race CI job runs this): preempted
// requests must release exactly their private references, resumes re-hit
// the cache, outputs never change, and alloc/free counters balance to zero
// pages after shutdown.
func TestPrefixPreemptionRefcountStress(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines := map[string]model.Engine{"fp32": model.Exact{}}
	// The shared prefix spans exactly two pages, so finished requests
	// donate an aligned entry the others (and their own resumes) mount.
	prefix := workload.TokenStream(workload.Wiki, 7, 16, m.Cfg.Vocab)
	trace := make([]workload.RequestSpec, 4)
	for i := range trace {
		tail := workload.TokenStream(workload.PTB, 60+uint64(i), 8, m.Cfg.Vocab)
		trace[i] = workload.RequestSpec{
			Prompt:    append(append([]int(nil), prefix...), tail...),
			NewTokens: 12,
		}
	}
	for _, temp := range []float64{0, 0.8} {
		name := "greedy"
		if temp > 0 {
			name = "sampled"
		}
		t.Run(name, func(t *testing.T) {
			ref := DecodeUnbatched(m, model.Exact{}, trace, temp, 17)
			srv, err := New(Config{
				Model: m, Engines: engines, MaxBatch: 4, QueueDepth: 8,
				PrefillChunk: 4,
				KVBudgetRows: 64, KVPageRows: 8, PrefixCache: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			outputs, snap := preloadAndRun(t, srv, trace, temp, 17)
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
				t.Fatalf("pressure never preempted: %+v", snap)
			}
			if snap.KVPeakOccupancyRows > int64(snap.KVBudgetRows) {
				t.Fatalf("KV occupancy %d exceeded budget %d", snap.KVPeakOccupancyRows, snap.KVBudgetRows)
			}
			// preloadAndRun stopped the server, which flushed the caches:
			// the pool must be empty and the counters balanced.
			after := srv.Metrics().Snapshot()
			if after.KVPagesInUse != 0 || after.KVPageAllocs != after.KVPageFrees {
				t.Fatalf("pages leaked after shutdown: %+v", after)
			}
			if after.KVPageAllocs == 0 {
				t.Fatal("paged sessions never touched the pool")
			}
		})
	}
}

// TestPrefixHitThatCannotFitMountsCold: a prompt whose best cached match
// ends mid-page pins that entry, and the pin keeps the entry's partial
// last page in the pool. When that page plus the request's own need
// exceeds the budget on an otherwise idle server, holding would wait
// forever for memory only its own pin withholds; admission must instead
// mount cold — same tokens, no hit.
func TestPrefixHitThatCannotFitMountsCold(t *testing.T) {
	m := model.New(model.TinyConfig())
	srv, err := New(Config{
		Model: m, Engines: map[string]model.Engine{"fp32": model.Exact{}},
		MaxBatch: 2, PrefillChunk: 8,
		KVBudgetRows: 48, KVPageRows: 8, PrefixCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	prefix := workload.TokenStream(workload.Wiki, 1, 17, m.Cfg.Vocab)
	// The donor caches 17 rows: two full pages plus one row of a third,
	// 24 rows of pool pages, of which a hit mounts 16 and copies the rest.
	donor := Request{Prompt: append(append([]int(nil), prefix...), 5), MaxNewTokens: 1}
	drive(t, srv, submitAll(t, srv, []Request{donor}))
	if held := srv.prefixCaches["fp32"].Stats().HeldRows; held != 24 {
		t.Fatalf("donor left %d cached rows, want 24", held)
	}
	// 40 prompt rows + 8 more decode rows fill the 48-row budget exactly:
	// the hit needs 48−16 = 32 rows of pages while the pinned entry holds 24.
	long := append(append([]int(nil), prefix...), workload.TokenStream(workload.PTB, 2, 23, m.Cfg.Vocab)...)
	res := drive(t, srv, submitAll(t, srv, []Request{{Prompt: long, MaxNewTokens: 9}}))[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ref := DecodeUnbatched(m, model.Exact{}, []workload.RequestSpec{{Prompt: long, NewTokens: 9}}, 0, 0)
	identtest.Equal(t, "cold fallback", identtest.Output{Tokens: [][]int{res.Tokens}}, identtest.Output{Tokens: ref})
	if snap := srv.Metrics().Snapshot(); snap.PrefixHits != 0 || snap.PrefixEvictions == 0 {
		t.Fatalf("want a cold mount after evicting the cache, got %d hits, %d evictions",
			snap.PrefixHits, snap.PrefixEvictions)
	}
}

// TestPrefixDonationFreesNoPool: a running request's donated prompt pages
// are one set of pool pages that the request and the cache both hold, so
// the donation takes nothing from the pool. While the donor decodes, a
// short request fits the pages left without evicting the donor's fresh
// entries, and a repeat of the donor's prompt then hits them.
func TestPrefixDonationFreesNoPool(t *testing.T) {
	m := model.New(model.TinyConfig())
	srv, err := New(Config{
		Model: m, Engines: map[string]model.Engine{"fp32": model.Exact{}},
		PrefillChunk: 32, KVBudgetRows: 48, KVPageRows: 8, PrefixCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	donor := workload.TokenStream(workload.Wiki, 3, 20, m.Cfg.Vocab)
	reqs := []Request{
		{Prompt: donor, MaxNewTokens: 8},
		{Prompt: workload.TokenStream(workload.PTB, 4, 5, m.Cfg.Vocab), MaxNewTokens: 4},
		{Prompt: donor, MaxNewTokens: 4},
	}
	// One iteration per submission: the donor prefills its whole prompt
	// and donates it in the first, then decodes while the others arrive.
	var ps []*pending
	for i := range reqs {
		ps = append(ps, submitAll(t, srv, reqs[i:i+1])...)
		srv.iterate(srv.now())
		snap := srv.Metrics().Snapshot()
		if len(srv.waiting) != 0 || snap.PrefixEvictions != 0 {
			t.Fatalf("request %d: %d waiting, %d prefix evictions, want both 0", i, len(srv.waiting), snap.PrefixEvictions)
		}
	}
	if snap := srv.Metrics().Snapshot(); snap.PrefixHits != 1 {
		t.Fatalf("the repeated prompt got %d prefix hits, want 1", snap.PrefixHits)
	}
	res := drive(t, srv, ps)
	specs := make([]workload.RequestSpec, len(reqs))
	got := make([][]int, len(reqs))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		specs[i] = workload.RequestSpec{Prompt: reqs[i].Prompt, NewTokens: reqs[i].MaxNewTokens}
		got[i] = r.Tokens
	}
	identtest.Equal(t, "donor, short request and repeat",
		identtest.Output{Tokens: got}, identtest.Output{Tokens: DecodeUnbatched(m, model.Exact{}, specs, 0, 0)})
}
