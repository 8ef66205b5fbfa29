package model

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"tender/internal/tensor"
)

// PrefixCache indexes cached KV prefixes of prompts for one engine: a trie
// keyed by page-aligned token chunks (one edge per tensor.BlockPool page
// worth of tokens), with entries anchored at aligned depths plus an
// optional sub-page token tail. Causal attention makes the KV rows of a
// prompt prefix depend only on the prefix tokens, so two requests sharing
// a prompt prefix can share the refcounted pages holding its keys and
// values — the repeated prefill becomes a page mount.
//
// One cache serves one engine: KV rows are the engine's projections, so
// caches are never shared across engine specs. Entries hold one page
// reference per layer per K/V page (dropped on eviction); sessions that
// mount an entry take their own references, so evicting an entry while a
// session still reads its pages is safe — the pages outlive the entry.
// Pinning (Acquire/Release) tracks the mounted-session count so eviction
// only reclaims entries no active session uses. The cache keeps no budget
// of its own: its pages are ordinary pool pages, so a serving scheduler
// sees them in BlockPool.Free and evicts entries (EvictLRU) until the
// pool covers what live sessions need. Only engines that pass the
// row-independence audit (Model.AuditRows) may serve hits: a hit re-chunks
// prefill (the covered rows are mounted, only the tail is appended), which
// is exact only when every site treats activation rows independently.
//
// All methods are safe for concurrent use, but the intended deployment is
// single-writer: the serving scheduler goroutine does every Acquire /
// Insert / Evict, and other goroutines only read Stats.
type PrefixCache struct {
	pool     *tensor.BlockPool
	layers   int
	pageRows int
	maxRows  int // 0 = unbounded

	mu      sync.Mutex
	root    *prefixNode
	lruHead *PrefixEntry // most recently used
	lruTail *PrefixEntry // least recently used
	entries int
	// charge counts, per layer-0 K page, how many entries hold it — what
	// the row cap and Stats count. Page sharing is uniform across layers
	// and K/V by construction (entries are whole-prefix shares of one
	// session), so layer-0 K pages stand in for "position pages": each
	// charged page accounts pageRows positions — 2×layers actual pool
	// pages.
	charge    map[*tensor.Page]int
	heldRows  int
	evictions int64
}

// prefixNode is one trie node: depth d covers the first d page-aligned
// token chunks of a prompt.
type prefixNode struct {
	children map[string]*prefixNode
	entries  []*PrefixEntry // anchored here; distinguished by token tail
}

// PrefixEntry is one cached prefix: the per-layer K/V pages covering its
// rows (the last page partially filled when rows ends mid-page) plus the
// LRU/pin bookkeeping.
type PrefixEntry struct {
	cache *PrefixCache
	node  *prefixNode
	tail  []int // tokens past the aligned chunks (len < pageRows)
	rows  int   // tokens covered = depth×pageRows + len(tail)
	k, v  [][]*tensor.Page

	active     int // sessions currently mounting this entry
	prev, next *PrefixEntry
}

// Rows returns the number of prompt tokens (KV rows) the entry covers.
func (e *PrefixEntry) Rows() int { return e.rows }

// PrefixCacheStats is a point-in-time view of a cache.
type PrefixCacheStats struct {
	// Entries is the number of cached prefixes.
	Entries int
	// HeldRows is the positions charged to the cache (page-rounded,
	// overlapping entries counted once).
	HeldRows int
	// HeldPages is the pool pages those positions pin across all layers
	// and K/V.
	HeldPages int
	// Evictions counts entries removed by EvictLRU or Flush, cumulative.
	Evictions int64
}

// NewPrefixCache returns an empty cache over pool for a model with layers
// transformer layers. maxRows, if positive, caps the positions the cache
// may retain: Insert evicts unpinned entries LRU-first to stay under it.
func NewPrefixCache(pool *tensor.BlockPool, layers, maxRows int) *PrefixCache {
	if pool == nil || layers <= 0 || maxRows < 0 {
		panic(fmt.Sprintf("model: NewPrefixCache(%v, %d, %d)", pool, layers, maxRows))
	}
	return &PrefixCache{
		pool:     pool,
		layers:   layers,
		pageRows: pool.PageRows(),
		maxRows:  maxRows,
		root:     &prefixNode{},
		charge:   make(map[*tensor.Page]int),
	}
}

// chunkKey encodes one page worth of tokens as a map key.
func chunkKey(tokens []int) string {
	buf := make([]byte, 0, 4*len(tokens))
	var tmp [binary.MaxVarintLen64]byte
	for _, t := range tokens {
		buf = append(buf, tmp[:binary.PutVarint(tmp[:], int64(t))]...)
	}
	return string(buf)
}

// match walks the aligned chunks of prompt and returns the longest entry
// whose covered tokens are a proper prefix of prompt (rows ≤ len(prompt)−1,
// so a hit always leaves at least one token to prefill — the one whose
// logits seed decoding).
func (c *PrefixCache) match(prompt []int) *PrefixEntry {
	var best *PrefixEntry
	limit := len(prompt) - 1
	node := c.root
	covered := 0
	for {
		for _, e := range node.entries {
			if e.rows > limit || (best != nil && e.rows <= best.rows) {
				continue
			}
			if tailMatches(prompt[covered:], e.tail) {
				best = e
			}
		}
		if covered+c.pageRows > limit || node.children == nil {
			return best
		}
		child, ok := node.children[chunkKey(prompt[covered:covered+c.pageRows])]
		if !ok {
			return best
		}
		node = child
		covered += c.pageRows
	}
}

func tailMatches(rest, tail []int) bool {
	if len(tail) > len(rest) {
		return false
	}
	for i, t := range tail {
		if rest[i] != t {
			return false
		}
	}
	return true
}

// Acquire returns the longest cached prefix of prompt, pinned: the entry
// cannot be evicted until the matching Release. nil on a miss. The caller
// mounts it with Model.NewSessionOn.
func (c *PrefixCache) Acquire(prompt []int) *PrefixEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.match(prompt)
	if e == nil {
		return nil
	}
	e.active++
	c.touch(e)
	return e
}

// Release drops one Acquire pin.
func (c *PrefixCache) Release(e *PrefixEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.active <= 0 {
		panic("model: PrefixCache.Release without a pin")
	}
	e.active--
}

// Insert caches the KV prefix of prompt from s, a session on the cache's
// pool that has prefilled at least the full prompt. It caches the longest
// aligned prefix of prompt[:len(prompt)−1] and — when the boundary lands
// mid-page — a second entry extending it with the sub-page token tail, so
// both exact-prompt repeats and longer shared-prefix prompts hit. The
// entries take references on s's pages, never new pages. An entry that
// cannot fit under the cache's row cap after evicting every unpinned entry
// is dropped; ok reports whether any entry was cached (a duplicate counts,
// refreshing its recency).
func (c *PrefixCache) Insert(prompt []int, s *Session) (ok bool) {
	rows := len(prompt) - 1
	if rows < 1 {
		return false
	}
	if s.Len() < len(prompt) {
		panic(fmt.Sprintf("model: PrefixCache.Insert of a %d-token prompt into a %d-row session", len(prompt), s.Len()))
	}
	if s.pool != c.pool {
		panic("model: PrefixCache.Insert of a session on another pool")
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	depth := rows / c.pageRows
	if depth >= 1 {
		// Aligned entry: what prompts sharing the prefix but diverging
		// after it (different user turns on one system prompt) can mount.
		ok = c.insertOne(prompt, s, depth*c.pageRows, nil)
	}
	if tail := prompt[depth*c.pageRows : rows]; len(tail) > 0 {
		// Full entry: the extra sub-page tail exact prompt repeats reuse.
		// It shares the aligned entry's pages, so only the tail's partial
		// page is new charge.
		ok = c.insertOne(prompt, s, rows, tail) || ok
	}
	return ok
}

// insertOne adds a single entry covering rows tokens of prompt (tail is
// prompt's sub-page remainder past the aligned chunks). Caller holds c.mu.
func (c *PrefixCache) insertOne(prompt []int, s *Session, rows int, tail []int) bool {
	node := c.root
	for covered := 0; covered+c.pageRows <= rows; covered += c.pageRows {
		key := chunkKey(prompt[covered : covered+c.pageRows])
		if node.children == nil {
			node.children = make(map[string]*prefixNode)
		}
		child, okc := node.children[key]
		if !okc {
			child = &prefixNode{}
			node.children[key] = child
		}
		node = child
	}
	for _, e := range node.entries {
		if e.rows == rows && slices.Equal(e.tail, tail) {
			c.touch(e) // duplicate: refresh recency, charge nothing
			return true
		}
	}

	e := &PrefixEntry{
		cache: c,
		node:  node,
		tail:  append([]int(nil), tail...),
		rows:  rows,
		k:     make([][]*tensor.Page, len(s.kv)),
		v:     make([][]*tensor.Page, len(s.kv)),
	}
	for l := range s.kv {
		e.k[l] = s.kv[l].k.SharePages(rows)
		e.v[l] = s.kv[l].v.SharePages(rows)
	}
	charged := func() int {
		n := 0
		for _, pg := range e.k[0] {
			if c.charge[pg] == 0 {
				n += c.pageRows
			}
		}
		return n
	}
	// Evict until the row cap fits the new entry; an eviction may uncharge
	// pages the entry shares, so its charge is recounted each time.
	for c.maxRows > 0 && c.heldRows+charged() > c.maxRows {
		if !c.evictLocked(c.lruTail, false) {
			c.dropPages(e) // nothing unpinned left
			return false
		}
	}
	c.heldRows += charged()
	for _, pg := range e.k[0] {
		c.charge[pg]++
	}
	node.entries = append(node.entries, e)
	c.entries++
	c.pushFront(e)
	return true
}

// dropPages releases every page reference an unlinked entry holds.
func (c *PrefixCache) dropPages(e *PrefixEntry) {
	for l := range e.k {
		for _, pg := range e.k[l] {
			c.pool.Release(pg)
		}
		for _, pg := range e.v[l] {
			c.pool.Release(pg)
		}
	}
	e.k, e.v = nil, nil
}

// evictLocked removes the least recently used unpinned entry at or before
// e in LRU order — with freeing set, the least recently used one whose
// eviction returns a page to the pool — reporting false when there is
// none. Caller holds c.mu.
func (c *PrefixCache) evictLocked(e *PrefixEntry, freeing bool) bool {
	for e != nil && (e.active > 0 || freeing && !c.soleHolder(e)) {
		e = e.prev
	}
	if e == nil {
		return false
	}
	for _, pg := range e.k[0] {
		c.charge[pg]--
		if c.charge[pg] == 0 {
			delete(c.charge, pg)
			c.heldRows -= c.pageRows
		}
	}
	c.dropPages(e)
	c.unlink(e)
	for i, cand := range e.node.entries {
		if cand == e {
			e.node.entries = append(e.node.entries[:i], e.node.entries[i+1:]...)
			break
		}
	}
	c.entries--
	c.evictions++
	return true
}

// soleHolder reports whether e holds a page no one else references — no
// other entry, no session — so that evicting e frees memory. Sharing is
// uniform across layers and K/V (see charge), so layer 0's K pages decide.
func (c *PrefixCache) soleHolder(e *PrefixEntry) bool {
	for _, pg := range e.k[0] {
		if c.pool.Refs(pg) == 1 {
			return true
		}
	}
	return false
}

// EvictLRU evicts the least recently used unpinned entry whose eviction
// returns at least one page to the pool, reporting false when no entry
// would. An entry whose every page a live session or another entry also
// holds is kept: dropping it would free nothing and only lose future
// hits. A serving scheduler evicts until BlockPool.Free covers its need.
func (c *PrefixCache) EvictLRU() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictLocked(c.lruTail, true)
}

// Flush evicts every unpinned entry. With no pinned entries left (no
// active sessions), the cache afterwards holds no pages.
func (c *PrefixCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.evictLocked(c.lruTail, false) {
	}
}

// Stats returns the cache's current accounting.
func (c *PrefixCache) Stats() PrefixCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PrefixCacheStats{
		Entries:   c.entries,
		HeldRows:  c.heldRows,
		HeldPages: len(c.charge) * 2 * c.layers,
		Evictions: c.evictions,
	}
}

// --- LRU list (head = most recently used). Caller holds c.mu. ---

func (c *PrefixCache) pushFront(e *PrefixEntry) {
	e.prev, e.next = nil, c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

func (c *PrefixCache) unlink(e *PrefixEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *PrefixCache) touch(e *PrefixEntry) {
	c.unlink(e)
	c.pushFront(e)
}
