package tensor

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// DefaultPageRows is the default KV page granularity: pages hold this many
// rows unless a pool is built with another size. Small enough that a short
// session wastes at most one page per store, large enough that the
// per-page bookkeeping disappears against the row compute.
const DefaultPageRows = 16

// Page is one fixed-size slab of rows handed out by a BlockPool. Pages are
// reference counted: a page may be held by several PagedRows stores at
// once (a shared prompt prefix mounted into many sessions) plus any number
// of external holders (a prefix cache). Each holder owns one reference —
// taken by BlockPool.get, Retain, MountShared or SharePages — and drops it
// with Release (or PagedRows.Release); the page returns to the pool's
// freelist only when the last reference is gone.
//
// Page contents are append-only: rows already written are never mutated,
// so concurrent readers of a shared page never race with the one writer
// extending it past the rows they read. The refs field is guarded by the
// owning pool's mutex.
type Page struct {
	data []float64
	refs int
}

// BlockPool hands out fixed-size KV pages — pageRows×cols row slabs — from
// one shared, optionally size-bounded pool. It is the memory substrate for
// paged KV caches: every PagedRows store of a server draws from the same
// pool, so total KV memory is governed by the pool bound instead of by
// worst-case per-session sequence length. Fully released pages go on a
// freelist and are recycled, so steady-state page turnover performs no
// heap allocations.
//
// A BlockPool is safe for concurrent use; sessions stepping on parallel
// workers acquire and release pages under one mutex (page traffic is rare:
// once per pageRows appended rows per store).
type BlockPool struct {
	cols     int
	pageRows int
	maxPages int // 0 = unbounded

	mu     sync.Mutex
	free   []*Page
	inUse  int
	allocs int64 // pages handed out, cumulative
	frees  int64 // pages fully released, cumulative
}

// NewBlockPool returns a pool of pageRows×cols pages holding at most
// maxPages pages in flight (0 = unbounded). No memory is reserved up
// front (see Reserve); pages are created on demand and recycled
// thereafter.
func NewBlockPool(cols, pageRows, maxPages int) *BlockPool {
	if cols <= 0 || pageRows <= 0 || maxPages < 0 {
		panic(fmt.Sprintf("tensor: NewBlockPool(%d, %d, %d)", cols, pageRows, maxPages))
	}
	return &BlockPool{cols: cols, pageRows: pageRows, maxPages: maxPages}
}

// Reserve puts n fresh pages on the freelist, carved from one slab, so the
// next n page acquisitions allocate nothing. Reserved pages are free, not
// in use: the bound and the counters see them only once handed out.
func (p *BlockPool) Reserve(n int) {
	size := p.pageRows * p.cols
	slab := make([]float64, n*size)
	pages := make([]Page, n)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = slices.Grow(p.free, n)
	for i := range pages {
		pages[i].data = slab[i*size : (i+1)*size : (i+1)*size]
		p.free = append(p.free, &pages[i])
	}
}

// Cols returns the row width of the pool's pages.
func (p *BlockPool) Cols() int { return p.cols }

// PageRows returns the number of rows per page.
func (p *BlockPool) PageRows() int { return p.pageRows }

// Cap returns the pool's page bound (0 = unbounded).
func (p *BlockPool) Cap() int { return p.maxPages }

// Free returns how many more pages can be handed out before the bound is
// reached (math.MaxInt for an unbounded pool): the one KV ledger a server
// compares its requests' page needs (PagedRows.PagesToGrow) with.
func (p *BlockPool) Free() int {
	if p.maxPages == 0 {
		return math.MaxInt
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.maxPages - p.inUse
}

// InUse returns the number of distinct pages currently handed out. A page
// shared by several holders counts once — the bound governs memory, not
// references.
func (p *BlockPool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}

// Counters returns the cumulative page-allocation and page-free counts.
// Retains are not allocations: a page acquired once, shared by three
// stores and released by all of them counts one alloc and one free, so a
// balanced pair of counters still means "no pages leaked".
func (p *BlockPool) Counters() (allocs, frees int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocs, p.frees
}

// get hands out one fresh page (reference count 1). Exceeding a bounded
// pool is a scheduler accounting bug — admission and preemption must keep
// demand within the bound — so it panics rather than degrading silently.
func (p *BlockPool) get() *Page {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.maxPages > 0 && p.inUse >= p.maxPages {
		panic(fmt.Sprintf("tensor: BlockPool exhausted (%d pages of %d rows in use)", p.inUse, p.pageRows))
	}
	p.inUse++
	p.allocs++
	if n := len(p.free); n > 0 {
		pg := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		pg.refs = 1
		return pg
	}
	return &Page{data: make([]float64, p.pageRows*p.cols), refs: 1}
}

// Retain adds one reference to pg on behalf of a new holder. The holder
// must drop it with Release.
func (p *BlockPool) Retain(pg *Page) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pg.refs <= 0 {
		panic("tensor: Retain on a released page")
	}
	pg.refs++
}

// Refs returns pg's current reference count: 1 means a single holder, so
// that holder's Release returns the page to the pool.
func (p *BlockPool) Refs(pg *Page) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return pg.refs
}

// Release drops one reference to pg, returning it to the freelist when no
// holder remains. Stale contents are kept — PagedRows never reads past the
// rows it appended, so recycled pages need no zeroing.
func (p *BlockPool) Release(pg *Page) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pg.refs <= 0 {
		panic("tensor: Release on a released page")
	}
	pg.refs--
	if pg.refs == 0 {
		p.inUse--
		p.frees++
		p.free = append(p.free, pg)
	}
}

// PagedRows is an append-only row store backed by fixed-size pages from a
// shared BlockPool: the store behind every session's KV cache. Pages are
// acquired lazily as rows arrive — an empty store holds no memory — and
// released to the pool by Release. Rows never straddle pages, so Row and Span hand out
// views directly into page storage with no gather or copy.
//
// A store may additionally mount a shared read-only prefix (MountShared):
// refcounted pages produced by another store, typically a cached common
// prompt prefix. Mounted rows read exactly like appended ones. Appends
// past the mounted span go to fresh private pages; an append that would
// land inside a partially filled shared page first copies that page's
// mounted rows into a private one (copy-on-write), so a shared page is
// never written by a store that does not own it exclusively.
type PagedRows struct {
	pool  *BlockPool
	pages []*Page
	rows  int
	// shared counts the leading mounted pages: pages[:shared] are
	// refcounted shares that must not be written. Cleared page by page as
	// copy-on-write privatizes them (only the last, partial one ever is).
	shared int
}

// NewPagedRows returns an empty store drawing pages from pool. capRows, if
// positive, pre-sizes the page-pointer slice (a few words per page, not
// page memory) so steady-state appends up to capRows rows never grow it.
func NewPagedRows(pool *BlockPool, capRows int) *PagedRows {
	if capRows < 0 {
		capRows = 0
	}
	r := pool.pageRows
	return &PagedRows{pool: pool, pages: make([]*Page, 0, (capRows+r-1)/r)}
}

// Rows returns the number of rows readable so far (mounted + appended).
func (p *PagedRows) Rows() int { return p.rows }

// MountShared mounts rows rows of a shared prefix into an empty store: the
// store takes one reference on every page and serves the mounted rows
// through Row and Span as if it had appended them. rows may end mid-page;
// the first append into that partially filled page copies it
// (copy-on-write) so the shared original is never written. pages must
// cover exactly the mounted rows (ceil(rows/pageRows) pages from this
// store's pool).
func (p *PagedRows) MountShared(pages []*Page, rows int) {
	if p.rows != 0 || len(p.pages) != 0 {
		panic("tensor: MountShared on a non-empty PagedRows")
	}
	r := p.pool.pageRows
	if rows <= 0 || len(pages) != (rows+r-1)/r {
		panic(fmt.Sprintf("tensor: MountShared %d pages for %d rows of %d-row pages", len(pages), rows, r))
	}
	for _, pg := range pages {
		p.pool.Retain(pg)
	}
	p.pages = append(p.pages, pages...)
	p.rows = rows
	p.shared = len(pages)
}

// SharePages returns one reference per page covering the store's first
// rows rows — the handles another store can MountShared, or a prefix cache
// can hold. Each returned reference must eventually be dropped with
// BlockPool.Release (MountShared takes its own references; these are the
// caller's).
func (p *PagedRows) SharePages(rows int) []*Page {
	r := p.pool.pageRows
	if rows <= 0 || rows > p.rows {
		panic(fmt.Sprintf("tensor: SharePages(%d) of a %d-row store", rows, p.rows))
	}
	n := (rows + r - 1) / r
	out := make([]*Page, n)
	for i := 0; i < n; i++ {
		p.pool.Retain(p.pages[i])
		out[i] = p.pages[i]
	}
	return out
}

// PagesToGrow returns how many pool pages appending rows until the store
// holds n would acquire: one per page started, plus one copy-on-write page
// when the rows end inside a shared page.
func (p *PagedRows) PagesToGrow(n int) int {
	r := p.pool.pageRows
	if n <= p.rows {
		return 0
	}
	need := (n+r-1)/r - len(p.pages)
	if p.rows%r != 0 && p.rows/r < p.shared {
		need++
	}
	return need
}

// AppendRow appends a single row (length Cols), acquiring a page from the
// pool when the current one is full and privatizing a partially filled
// shared page (copy-on-write) before writing into it.
func (p *PagedRows) AppendRow(row []float64) {
	cols := p.pool.cols
	if len(row) != cols {
		panic(fmt.Sprintf("tensor: PagedRows append %d-wide row to %d-col store", len(row), cols))
	}
	r := p.pool.pageRows
	pg := p.rows / r
	if pg == len(p.pages) {
		p.pages = append(p.pages, p.pool.get())
	} else if pg < p.shared {
		// The append lands inside a mounted page other holders may read:
		// copy its mounted rows into a private page first. Only the last
		// shared page can be partial, so this runs at most once per store.
		fresh := p.pool.get()
		old := p.pages[pg]
		used := (p.rows % r) * cols
		copy(fresh.data[:used], old.data[:used])
		p.pool.Release(old)
		p.pages[pg] = fresh
		p.shared = pg
	}
	off := (p.rows % r) * cols
	copy(p.pages[pg].data[off:off+cols], row)
	p.rows++
}

// Row returns row r as a slice aliasing page storage.
func (p *PagedRows) Row(r int) []float64 {
	pr := p.pool.pageRows
	cols := p.pool.cols
	off := (r % pr) * cols
	return p.pages[r/pr].data[off : off+cols]
}

// Span returns the longest contiguous run of rows starting at r — the
// remainder of r's page, clipped to the appended rows — as a row-major
// slice, plus the run length (≥ 1 for r < Rows). Iterating spans walks the
// whole store page by page; the slices alias page storage with no copy.
func (p *PagedRows) Span(r int) ([]float64, int) {
	pr := p.pool.pageRows
	cols := p.pool.cols
	pg := r / pr
	end := (pg + 1) * pr
	if end > p.rows {
		end = p.rows
	}
	lo := (r % pr) * cols
	return p.pages[pg].data[lo : lo+(end-r)*cols], end - r
}

// Release empties the store, dropping its reference on every page —
// private pages return to the pool, shared ones survive as long as any
// other holder keeps them. The store is reusable afterwards (appends
// acquire fresh pages).
func (p *PagedRows) Release() {
	for i, pg := range p.pages {
		p.pool.Release(pg)
		p.pages[i] = nil
	}
	p.pages = p.pages[:0]
	p.rows = 0
	p.shared = 0
}
