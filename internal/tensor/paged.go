package tensor

import (
	"fmt"
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
// A page holds exactly one of the dtype storage arrays (data for KVF64,
// h for KVF16, q+scales for KVInt8), matching its pool's KVDtype.
type Page struct {
	data   []float64
	h      []uint16
	q      []int8
	scales []float64 // per-row int8 quantization scales
	refs   int
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
	dtype    KVDtype

	mu     sync.Mutex
	free   []*Page
	inUse  int
	allocs int64 // pages handed out, cumulative
	frees  int64 // pages fully released, cumulative
}

// NewBlockPool returns a pool of pageRows×cols pages holding at most
// maxPages pages in flight (0 = unbounded). No memory is reserved up
// front; pages are created on demand and recycled thereafter.
func NewBlockPool(cols, pageRows, maxPages int) *BlockPool {
	return NewBlockPoolDtype(cols, pageRows, maxPages, KVF64)
}

// NewBlockPoolDtype is NewBlockPool with an explicit page storage format.
// All stores drawing from one pool share its dtype; page references can
// therefore be shared between stores (prefix cache) without conversion.
func NewBlockPoolDtype(cols, pageRows, maxPages int, dtype KVDtype) *BlockPool {
	if cols <= 0 || pageRows <= 0 || maxPages < 0 {
		panic(fmt.Sprintf("tensor: NewBlockPool(%d, %d, %d)", cols, pageRows, maxPages))
	}
	if dtype != KVF64 && dtype != KVF16 && dtype != KVInt8 {
		panic(fmt.Sprintf("tensor: NewBlockPoolDtype: bad dtype %d", int(dtype)))
	}
	return &BlockPool{cols: cols, pageRows: pageRows, maxPages: maxPages, dtype: dtype}
}

// Dtype returns the pool's page storage format.
func (p *BlockPool) Dtype() KVDtype { return p.dtype }

// PageBytes returns the storage bytes of one page under the pool's dtype.
func (p *BlockPool) PageBytes() int { return p.pageRows * p.dtype.BytesPerRow(p.cols) }

// Cols returns the row width of the pool's pages.
func (p *BlockPool) Cols() int { return p.cols }

// PageRows returns the number of rows per page.
func (p *BlockPool) PageRows() int { return p.pageRows }

// Cap returns the pool's page bound (0 = unbounded).
func (p *BlockPool) Cap() int { return p.maxPages }

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
	pg := &Page{refs: 1}
	switch p.dtype {
	case KVF16:
		pg.h = make([]uint16, p.pageRows*p.cols)
	case KVInt8:
		pg.q = make([]int8, p.pageRows*p.cols)
		pg.scales = make([]float64, p.pageRows)
	default:
		pg.data = make([]float64, p.pageRows*p.cols)
	}
	return pg
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
// shared BlockPool: the paged counterpart of RowBuffer. Pages are acquired
// lazily as rows arrive — an empty store holds no memory — and released to
// the pool by Release. Rows never straddle pages, so Row and Span hand out
// views directly into page storage with no gather or copy.
//
// A store may additionally mount a shared read-only prefix (MountShared):
// refcounted pages produced by another store, typically a cached common
// prompt prefix. Mounted rows read exactly like appended ones. Appends
// past the mounted span go to fresh private pages; an append that would
// land inside a partially filled shared page first copies that page's
// mounted rows into a private one (copy-on-write), so a shared page is
// never written by a store that does not own it exclusively.
// Under a compressed pool dtype (KVF16, KVInt8) Row and Span decode page
// contents into a per-store scratch buffer instead of aliasing page
// memory. The scratch caches one decoded page, so re-reading the same page
// (per-head attention passes) decodes once; the returned slices stay valid
// until the next Row/Span call that touches a different page, or the next
// Append/Release/MountShared on the store. The pool's KVF64 default keeps
// the zero-copy alias behaviour exactly as before.
type PagedRows struct {
	pool  *BlockPool
	pages []*Page
	rows  int
	// shared counts the leading mounted pages: pages[:shared] are
	// refcounted shares that must not be written. Cleared page by page as
	// copy-on-write privatizes them (only the last, partial one ever is).
	shared int
	// scratch holds the decoded rows of page scratchPg (scratchRows rows);
	// scratchPg is -1 when nothing is cached. Unused for KVF64.
	scratch     []float64
	scratchPg   int
	scratchRows int
}

// NewPagedRows returns an empty store drawing pages from pool. capRows, if
// positive, pre-sizes the page-pointer slice (a few words per page, not
// page memory) so steady-state appends up to capRows rows never grow it.
func NewPagedRows(pool *BlockPool, capRows int) *PagedRows {
	if capRows < 0 {
		capRows = 0
	}
	r := pool.pageRows
	p := &PagedRows{pool: pool, pages: make([]*Page, 0, (capRows+r-1)/r), scratchPg: -1}
	if pool.dtype != KVF64 {
		p.scratch = make([]float64, r*pool.cols)
	}
	return p
}

// Rows returns the number of rows readable so far (mounted + appended).
func (p *PagedRows) Rows() int { return p.rows }

// Cols returns the row width.
func (p *PagedRows) Cols() int { return p.pool.cols }

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
		// Copy-on-write duplicates the raw encoded storage, so the
		// privatized rows decode bit-identically to the shared originals.
		fresh := p.pool.get()
		old := p.pages[pg]
		usedRows := p.rows % r
		switch p.pool.dtype {
		case KVF16:
			copy(fresh.h[:usedRows*cols], old.h[:usedRows*cols])
		case KVInt8:
			copy(fresh.q[:usedRows*cols], old.q[:usedRows*cols])
			copy(fresh.scales[:usedRows], old.scales[:usedRows])
		default:
			copy(fresh.data[:usedRows*cols], old.data[:usedRows*cols])
		}
		p.pool.Release(old)
		p.pages[pg] = fresh
		p.shared = pg
	}
	inPage := p.rows % r
	off := inPage * cols
	page := p.pages[pg]
	switch p.pool.dtype {
	case KVF16:
		encodeF16Row(page.h[off:off+cols], row)
	case KVInt8:
		page.scales[inPage] = encodeInt8Row(page.q[off:off+cols], row)
	default:
		copy(page.data[off:off+cols], row)
	}
	p.rows++
}

// AppendRows appends every row of m to the store.
func (p *PagedRows) AppendRows(m *Matrix) {
	if m.Cols != p.pool.cols {
		panic(fmt.Sprintf("tensor: PagedRows append %d cols to %d-col store", m.Cols, p.pool.cols))
	}
	for r := 0; r < m.Rows; r++ {
		p.AppendRow(m.Row(r))
	}
}

// Row returns row r as a slice aliasing page storage (KVF64) or the
// store's decode scratch (compressed dtypes; see the type comment for the
// validity window).
func (p *PagedRows) Row(r int) []float64 {
	pr := p.pool.pageRows
	cols := p.pool.cols
	off := (r % pr) * cols
	if p.pool.dtype == KVF64 {
		return p.pages[r/pr].data[off : off+cols]
	}
	return p.decodedPage(r / pr)[off : off+cols]
}

// Span returns the longest contiguous run of rows starting at r — the
// remainder of r's page, clipped to the appended rows — as a row-major
// slice, plus the run length (≥ 1 for r < Rows). Iterating spans walks the
// whole store page by page; under KVF64 the slices alias page storage with
// no copy, under compressed dtypes they point into the decode scratch.
func (p *PagedRows) Span(r int) ([]float64, int) {
	pr := p.pool.pageRows
	cols := p.pool.cols
	pg := r / pr
	end := (pg + 1) * pr
	if end > p.rows {
		end = p.rows
	}
	lo := (r % pr) * cols
	if p.pool.dtype == KVF64 {
		return p.pages[pg].data[lo : lo+(end-r)*cols], end - r
	}
	return p.decodedPage(pg)[lo : lo+(end-r)*cols], end - r
}

// decodedPage returns the scratch buffer holding page pg's readable rows
// decoded to float64, decoding on a cache miss. Decoding is a pure
// function of the stored codes, so repeated reads — and reads of the same
// shared page through different stores — always see identical values.
func (p *PagedRows) decodedPage(pg int) []float64 {
	pr := p.pool.pageRows
	cols := p.pool.cols
	avail := p.rows - pg*pr
	if avail > pr {
		avail = pr
	}
	// Appended rows never change, so a cache covering avail rows is current.
	if p.scratchPg == pg && p.scratchRows >= avail {
		return p.scratch
	}
	page := p.pages[pg]
	n := avail * cols
	switch p.pool.dtype {
	case KVF16:
		decodeF16Rows(p.scratch[:n], page.h[:n])
	case KVInt8:
		for r := 0; r < avail; r++ {
			decodeInt8Row(p.scratch[r*cols:(r+1)*cols], page.q[r*cols:(r+1)*cols], page.scales[r])
		}
	}
	p.scratchPg = pg
	p.scratchRows = avail
	return p.scratch
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
	p.scratchPg = -1
}
