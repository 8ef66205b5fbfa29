package model_test

import (
	"maps"
	"testing"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/model/identtest"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// prefillSession builds a paged session and prefills prompt through it.
func prefillSession(m *model.Model, eng model.Engine, pool *tensor.BlockPool, prompt []int) *model.Session {
	s := m.NewSessionOn(eng, pool, 0, nil)
	s.Append(prompt)
	return s
}

// matchRows returns the covered rows of prompt's longest cached prefix (0
// on a miss), dropping the pin Acquire takes.
func matchRows(cache *model.PrefixCache, prompt []int) int {
	e := cache.Acquire(prompt)
	if e == nil {
		return 0
	}
	cache.Release(e)
	return e.Rows()
}

// TestPrefixCacheMatch covers the trie semantics: exact-prompt repeats hit
// the full (sub-page tail) entry, prompts sharing only the page-aligned
// prefix hit the aligned entry, diverging prompts miss, and a hit never
// covers the whole prompt (at least one token is left to prefill).
func TestPrefixCacheMatch(t *testing.T) {
	const pageRows = 4
	m := model.New(model.TinyConfig())
	eng := model.Exact{}
	pool := tensor.NewBlockPool(m.Cfg.DModel, pageRows, 0)
	cache := model.NewPrefixCache(pool, m.Cfg.Layers, 0)

	prompt := workload.TokenStream(workload.Wiki, 1, 2*pageRows+3, m.Cfg.Vocab) // 11 tokens
	donor := prefillSession(m, eng, pool, prompt)
	if !cache.Insert(prompt, donor) {
		t.Fatal("Insert failed")
	}
	// Entries: aligned (8 rows) + full (10 rows); they share the first two
	// pages, so the charge is the full entry's page-rounded 10 rows = 12.
	if st := cache.Stats(); st.Entries != 2 || st.HeldRows != 12 {
		t.Fatalf("stats after insert: %+v", st)
	}

	// Exact repeat: longest entry is the full one, len(prompt)-1 = 10 rows.
	if got := matchRows(cache, prompt); got != 10 {
		t.Fatalf("exact repeat matched %d rows, want 10", got)
	}
	// Same aligned prefix, diverging afterwards: the aligned entry (8).
	div := append(append([]int(nil), prompt[:2*pageRows]...),
		(prompt[2*pageRows]+1)%m.Cfg.Vocab, 1, 2)
	if got := matchRows(cache, div); got != 8 {
		t.Fatalf("aligned-prefix prompt matched %d rows, want 8", got)
	}
	// Diverging in the first page: miss.
	miss := append([]int(nil), prompt...)
	miss[1] = (miss[1] + 1) % m.Cfg.Vocab
	if got := matchRows(cache, miss); got != 0 {
		t.Fatalf("diverging prompt matched %d rows, want 0", got)
	}
	// A prompt equal to the full entry's coverage plus nothing to prefill
	// must fall back to a shorter entry: prompt[:10] has limit 9 < full's
	// 10 rows, so the aligned 8-row entry wins.
	if got := matchRows(cache, prompt[:10]); got != 8 {
		t.Fatalf("covered-entirely prompt matched %d rows, want 8", got)
	}
	// Short prompt whose limit is below every entry: miss.
	if got := matchRows(cache, prompt[:3]); got != 0 {
		t.Fatalf("short prompt matched %d rows, want 0", got)
	}

	donor.ReleaseKV()
	cache.Flush()
	if st := cache.Stats(); st.Entries != 0 || st.HeldRows != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	if got := pool.InUse(); got != 0 {
		t.Fatalf("%d pages leaked after flush", got)
	}
}

// TestPrefixMountBitIdenticalEveryScheme is the tentpole invariant at the
// model layer: for every registry scheme, a session that mounts a cached
// prefix — at match lengths straddling the page boundary (page−1, page,
// page+1: the copy-on-write edge cases) — produces logits bit-identical to
// a cold session that prefills the whole prompt, at the prefill step and
// through a decode run crossing further pages.
func TestPrefixMountBitIdenticalEveryScheme(t *testing.T) {
	const pageRows = 8
	m := model.New(model.TinyConfig())
	engines := identtest.Engines(t, m, servable("tender:int", "uniform:gran=tensor"))
	maps.Copy(engines, offlineEngines(t, m, []string{"olive"}, false))
	for _, name := range servable("tender:int", "uniform:gran=tensor", "olive") {
		key, err := engine.Canonical(name)
		if err != nil {
			t.Fatal(err)
		}
		eng := engines[key]
		t.Run(name, func(t *testing.T) {
			if !m.RowIndependent(eng) {
				// Row-coupled quantization (OliVe) cannot re-chunk prefill
				// bit-identically; the serving build refuses it, so there is
				// no hit path to verify.
				if key != "olive" {
					t.Fatalf("%s unexpectedly not prefix-shareable", key)
				}
				t.Skip("row-coupled engine: refused for serving")
			}
			// Prompt length L inserts a full entry of L−1 rows: choose L so
			// the match lands at page−1, page and page+1 rows.
			for _, plen := range []int{pageRows, pageRows + 1, pageRows + 2} {
				pool := tensor.NewBlockPool(m.Cfg.DModel, pageRows, 0)
				cache := model.NewPrefixCache(pool, m.Cfg.Layers, 0)
				prompt := workload.TokenStream(workload.PTB, 40+uint64(plen), plen, m.Cfg.Vocab)

				donor := prefillSession(m, eng, pool, prompt)
				if !cache.Insert(prompt, donor) {
					t.Fatalf("prompt %d: insert failed", plen)
				}
				e := cache.Acquire(prompt)
				if e == nil || e.Rows() != plen-1 {
					t.Fatalf("prompt %d: acquired %v", plen, e)
				}
				hit := m.NewSessionOn(eng, pool, 0, e)
				cold := m.NewSession(eng, 0)

				// The hit session prefills only the uncovered tail.
				lh := hit.Append(prompt[e.Rows():])
				lc := cold.Append(prompt)
				hrow, crow := lh.Row(lh.Rows-1), lc.Row(lc.Rows-1)
				for c := range crow {
					if hrow[c] != crow[c] {
						t.Fatalf("prompt %d: prefill logit %d differs: hit %v cold %v", plen, c, hrow[c], crow[c])
					}
				}
				tok := model.Greedy(crow)
				for step := 0; step < pageRows+2; step++ {
					lh, lc = hit.Append([]int{tok}), cold.Append([]int{tok})
					if d := tensor.MaxAbsDiff(lh, lc); d != 0 {
						t.Fatalf("prompt %d step %d: decode logits differ by %g", plen, step, d)
					}
					tok = model.Greedy(lc.Row(0))
				}

				hit.ReleaseKV()
				cache.Release(e)
				donor.ReleaseKV()
				cache.Flush()
				if got := pool.InUse(); got != 0 {
					t.Fatalf("prompt %d: %d pages leaked", plen, got)
				}
				allocs, frees := pool.Counters()
				if allocs != frees {
					t.Fatalf("prompt %d: %d allocs vs %d frees", plen, allocs, frees)
				}
			}
		})
	}
}

// TestPrefixCOWIsolation: two sessions mounting the same mid-page entry
// diverge independently — each session's appended rows never leak into the
// other's cache view or into the donor's pages.
func TestPrefixCOWIsolation(t *testing.T) {
	const pageRows = 8
	m := model.New(model.TinyConfig())
	eng := model.Exact{}
	pool := tensor.NewBlockPool(m.Cfg.DModel, pageRows, 0)
	cache := model.NewPrefixCache(pool, m.Cfg.Layers, 0)
	prompt := workload.TokenStream(workload.Wiki, 9, pageRows+2, m.Cfg.Vocab)

	donor := prefillSession(m, eng, pool, prompt)
	if !cache.Insert(prompt, donor) {
		t.Fatal("insert failed")
	}
	e := cache.Acquire(prompt)
	if e == nil {
		t.Fatal("no match")
	}

	// Cold references for two different continuations.
	contA := append(append([]int(nil), prompt...), 0)
	contB := append(append([]int(nil), prompt...), 1)
	coldA, coldB := m.NewSession(eng, 0), m.NewSession(eng, 0)
	la, lb := coldA.Append(contA), coldB.Append(contB)

	cache.Release(e)
	ea, eb := cache.Acquire(prompt), cache.Acquire(prompt)
	hitA := m.NewSessionOn(eng, pool, 0, ea)
	hitB := m.NewSessionOn(eng, pool, 0, eb)
	ha := hitA.Append(append(append([]int(nil), prompt[ea.Rows():]...), 0))
	hb := hitB.Append(append(append([]int(nil), prompt[eb.Rows():]...), 1))
	if d := tensor.MaxAbsDiff(ha.RowView(ha.Rows-1, ha.Rows), la.RowView(la.Rows-1, la.Rows)); d != 0 {
		t.Fatalf("continuation A diverged by %g", d)
	}
	if d := tensor.MaxAbsDiff(hb.RowView(hb.Rows-1, hb.Rows), lb.RowView(lb.Rows-1, lb.Rows)); d != 0 {
		t.Fatalf("continuation B diverged by %g", d)
	}

	hitA.ReleaseKV()
	hitB.ReleaseKV()
	cache.Release(ea)
	cache.Release(eb)
	donor.ReleaseKV()
	cache.Flush()
	if got := pool.InUse(); got != 0 {
		t.Fatalf("%d pages leaked", got)
	}
}

// TestPrefixLRUEvictionAndPinning: the row cap evicts least-recently-used
// unpinned entries; pinned entries survive any pressure; duplicate inserts
// charge nothing; Flush leaves pinned entries in place.
func TestPrefixLRUEvictionAndPinning(t *testing.T) {
	const pageRows = 4
	m := model.New(model.TinyConfig())
	eng := model.Exact{}
	pool := tensor.NewBlockPool(m.Cfg.DModel, pageRows, 0)
	// Each prompt below (10 tokens) inserts an aligned 8-row entry plus a
	// full 9-row entry sharing its pages: 12 rows (3 pages) charged per
	// prompt. The cap fits exactly two prompts' worth.
	cache := model.NewPrefixCache(pool, m.Cfg.Layers, 24)

	mk := func(seed uint64) ([]int, *model.Session) {
		prompt := workload.TokenStream(workload.Wiki, seed, 2*pageRows+2, m.Cfg.Vocab)
		return prompt, prefillSession(m, eng, pool, prompt)
	}
	p1, d1 := mk(101)
	p2, d2 := mk(202)
	p3, d3 := mk(303)

	if !cache.Insert(p1, d1) {
		t.Fatal("insert 1 failed")
	}
	held := cache.Stats().HeldRows
	if !cache.Insert(p1, d1) || cache.Stats().HeldRows != held {
		t.Fatalf("duplicate insert: want ok and no new charge, stats %+v", cache.Stats())
	}
	e1 := cache.Acquire(p1) // pin p1's full entry
	if !cache.Insert(p2, d2) {
		t.Fatal("insert 2 failed")
	}
	st := cache.Stats()
	if st.HeldRows != 24 || st.Entries != 4 {
		t.Fatalf("stats before pressure: %+v", st)
	}

	// p3 exceeds the cap: LRU eviction must reclaim p2's entries (p1's
	// full entry is pinned; its aligned entry shares the pinned entry's
	// pages, so evicting it frees nothing and the evictor keeps going).
	if !cache.Insert(p3, d3) {
		t.Fatal("insert 3 failed under cap pressure")
	}
	if got := matchRows(cache, p2); got != 0 {
		t.Fatalf("p2 still cached (%d rows) after cap eviction", got)
	}
	if got := matchRows(cache, p1); got != e1.Rows() {
		t.Fatalf("pinned p1 entry evicted (match %d rows)", got)
	}
	if st := cache.Stats(); st.HeldRows > 24 {
		t.Fatalf("cap exceeded: %+v", st)
	}

	// Flush with a pin held: everything except the pinned entry goes.
	cache.Flush()
	if got := matchRows(cache, p1); got != e1.Rows() {
		t.Fatal("Flush evicted a pinned entry")
	}
	cache.Release(e1)
	cache.Flush()
	if st := cache.Stats(); st.Entries != 0 || st.HeldRows != 0 || st.HeldPages != 0 {
		t.Fatalf("cache not empty after final flush: %+v", st)
	}
	for _, d := range []*model.Session{d1, d2, d3} {
		d.ReleaseKV()
	}
	if got := pool.InUse(); got != 0 {
		t.Fatalf("%d pages leaked", got)
	}
}
