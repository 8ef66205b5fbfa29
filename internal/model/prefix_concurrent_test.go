package model_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tender/internal/model"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// TestPrefixCacheConcurrentPinEvict hammers one PrefixCache with the
// router's cross-replica pin pattern: many requests concurrently Acquire
// a shared prefix, hold the pin while "decoding", and Release, while
// other goroutines re-Insert prefixes and force LRU eviction under a
// tight row cap. Run under -race this is the cache's lock-discipline
// test; at quiescence the accounting must be exact — every pin released,
// every entry evictable, zero pool pages leaked — and every successful
// Acquire must have returned a prefix the trace actually contains.
func TestPrefixCacheConcurrentPinEvict(t *testing.T) {
	const (
		pageRows = 4
		groups   = 8
		workers  = 8
		iters    = 150
		// A cap of 6 pages across 8 two-page prefixes keeps eviction
		// constantly in play.
		maxRows = 6 * pageRows
	)
	m := model.New(model.TinyConfig())
	eng := model.Exact{}
	pool := tensor.NewBlockPool(m.Cfg.DModel, pageRows, 0)
	cache := model.NewPrefixCache(pool, m.Cfg.Layers, maxRows)

	// Each group shares a page-aligned prefix; donors stay alive so the
	// inserter can re-donate evicted prefixes throughout the run.
	prompts := make([][]int, groups)
	donors := make([]*model.Session, groups)
	validRows := make(map[int]bool) // coverages an Acquire may legally return
	for g := range prompts {
		prompts[g] = workload.TokenStream(workload.Wiki, 100+uint64(g), 2*pageRows+2, m.Cfg.Vocab)
		donors[g] = prefillSession(m, eng, pool, prompts[g])
		if !cache.Insert(prompts[g], donors[g]) {
			t.Fatalf("seed insert %d failed", g)
		}
	}
	// Insert creates the aligned entry (2 pages) and the full entry (its
	// sub-page tail rounds to a 3rd page).
	for _, rows := range []int{2 * pageRows, 2*pageRows + 1} {
		validRows[rows] = true
	}

	var hits, misses atomic.Int64
	var workersWG, churnWG sync.WaitGroup
	stop := make(chan struct{})

	// Pinning workers: the Acquire → hold → Release pattern every serving
	// scheduler runs per request.
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			for i := 0; i < iters; i++ {
				g := (w*iters + i*7) % groups
				// A request prompt = cached prefix + unique turn.
				req := append(append([]int(nil), prompts[g]...), (w+i)%m.Cfg.Vocab, (w*i)%m.Cfg.Vocab)
				e := cache.Acquire(req)
				if e == nil {
					misses.Add(1)
					continue
				}
				if !validRows[e.Rows()] {
					panic("Acquire returned an entry covering rows never inserted")
				}
				runtime.Gosched() // hold the pin across a scheduling point
				cache.Release(e)
				hits.Add(1)
			}
		}(w)
	}
	// Inserter: keeps donating prefixes back as eviction removes them.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cache.Insert(prompts[i%groups], donors[i%groups])
			runtime.Gosched()
		}
	}()
	// Evictor: the memory-pressure reclaim path racing the pins.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cache.EvictLRU()
			runtime.Gosched()
		}
	}()

	// Workers finish on their own; then stop the background churn.
	workersWG.Wait()
	close(stop)
	churnWG.Wait()

	if hits.Load() == 0 {
		t.Fatal("no Acquire ever hit")
	}
	if hits.Load()+misses.Load() != workers*iters {
		t.Fatalf("hit/miss accounting %d+%d != %d lookups", hits.Load(), misses.Load(), workers*iters)
	}
	// The row cap held throughout (Stats is the post-quiescence check; the
	// cap is enforced under the same lock as every mutation).
	if st := cache.Stats(); st.HeldRows > maxRows {
		t.Fatalf("cache exceeded its row cap: %+v", st)
	}

	// Quiescent teardown: all pins released, so Flush must empty the cache
	// and — once donors drop their own references — zero pool pages remain.
	cache.Flush()
	if st := cache.Stats(); st.Entries != 0 || st.HeldRows != 0 || st.HeldPages != 0 {
		t.Fatalf("cache not empty after flush: %+v", st)
	}
	for _, d := range donors {
		d.ReleaseKV()
	}
	if got := pool.InUse(); got != 0 {
		t.Fatalf("%d pool pages leaked", got)
	}
}
