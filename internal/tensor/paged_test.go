package tensor

import (
	"math"
	"testing"
)

// TestBlockPoolBoundAndRecycling: a bounded pool panics past its cap,
// Free counts down to it, Release returns pages for reuse, and the
// counters track the traffic.
func TestBlockPoolBoundAndRecycling(t *testing.T) {
	const cols, pageRows = 4, 2
	pool := NewBlockPool(cols, pageRows, 2)
	a := NewPagedRows(pool, 0)
	row := make([]float64, cols)
	for i := 0; i < 2*pageRows; i++ {
		row[0] = float64(i)
		a.AppendRow(row)
	}
	if got := pool.InUse(); got != 2 || pool.Free() != 0 {
		t.Fatalf("pages in use %d, free %d; want 2, 0", got, pool.Free())
	}
	if got := NewBlockPool(cols, pageRows, 0).Free(); got != math.MaxInt {
		t.Fatalf("unbounded pool has %d pages free, want math.MaxInt", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("append past the pool bound must panic")
			}
		}()
		a.AppendRow(row)
	}()
	a.Release()
	if got := pool.InUse(); got != 0 {
		t.Fatalf("pages in use after Release %d, want 0", got)
	}
	// Reuse: the freed pages satisfy a new store without growing the pool.
	b := NewPagedRows(pool, 2*pageRows)
	for i := 0; i < 2*pageRows; i++ {
		b.AppendRow(row)
	}
	allocs, frees := pool.Counters()
	if allocs != 4 || frees != 2 {
		t.Fatalf("counters allocs=%d frees=%d, want 4/2", allocs, frees)
	}
	if b.Rows() != 2*pageRows {
		t.Fatalf("rows %d after reuse", b.Rows())
	}
	b.Release()
}

// TestBlockPoolReserve: reserved pages wait on the freelist — neither in
// use nor counted — and serve the next acquisitions without a heap
// allocation.
func TestBlockPoolReserve(t *testing.T) {
	pool := NewBlockPool(4, 2, 0)
	pool.Reserve(3)
	if allocs, frees := pool.Counters(); pool.InUse() != 0 || allocs != 0 || frees != 0 {
		t.Fatalf("after Reserve: %d in use, %d allocs, %d frees; want all 0", pool.InUse(), allocs, frees)
	}
	// AllocsPerRun calls f once to warm up, then once measured: two pages.
	if n := testing.AllocsPerRun(1, func() { pool.get() }); n != 0 {
		t.Fatalf("acquiring a reserved page allocated %v times", n)
	}
	if got := pool.InUse(); got != 2 {
		t.Fatalf("%d pages in use, want 2", got)
	}
}

// TestPagedRowsShareMountCOW covers the prefix-sharing surface at every
// partial-page boundary: a donor store shares its first L rows (L = page−1,
// page, page+1), a second store mounts them, reads them bit-identically,
// and appends its own rows — copying the partially filled shared page
// (copy-on-write) without disturbing the donor — while the pool's refcounts
// keep every page alive exactly as long as some holder remains.
func TestPagedRowsShareMountCOW(t *testing.T) {
	const cols, pageRows = 3, 4
	rng := NewRNG(11)
	for _, share := range []int{pageRows - 1, pageRows, pageRows + 1} {
		pool := NewBlockPool(cols, pageRows, 0)
		donor := NewPagedRows(pool, 0)
		src := RandNormal(rng, share+2, cols, 1)
		for r := 0; r < src.Rows; r++ {
			donor.AppendRow(src.Row(r))
		}

		pages := donor.SharePages(share)
		wantPages := (share + pageRows - 1) / pageRows
		if len(pages) != wantPages {
			t.Fatalf("share=%d: %d pages shared, want %d", share, len(pages), wantPages)
		}
		mounted := NewPagedRows(pool, 0)
		mounted.MountShared(pages, share)
		// Growing one row past the mount takes a fresh page at a page
		// boundary and a copy-on-write page inside a partial one.
		if got := mounted.PagesToGrow(share + 1); got != 1 {
			t.Fatalf("share=%d: PagesToGrow(%d) = %d, want 1", share, share+1, got)
		}
		for _, pg := range pages {
			pool.Release(pg) // the cache-style holder drops its references
		}
		if mounted.Rows() != share {
			t.Fatalf("share=%d: mounted %d rows", share, mounted.Rows())
		}
		for r := 0; r < share; r++ {
			dr, mr := donor.Row(r), mounted.Row(r)
			for c := range dr {
				if dr[c] != mr[c] {
					t.Fatalf("share=%d row %d col %d: mounted %v != donor %v", share, r, c, mr[c], dr[c])
				}
			}
		}

		// Divergent appends: the mounted store writes its own row at
		// position share while the donor's row at the same position (from
		// src) must stay untouched — COW when share lands mid-page.
		own := make([]float64, cols)
		for c := range own {
			own[c] = -100 - float64(c)
		}
		mounted.AppendRow(own)
		if got := mounted.Row(share); got[0] != own[0] {
			t.Fatalf("share=%d: appended row reads %v", share, got)
		}
		if got, want := donor.Row(share), src.Row(share); got[0] != want[0] {
			t.Fatalf("share=%d: donor row %d corrupted by mounted append: %v", share, share, got)
		}
		// Mounted rows before the boundary survived the COW copy.
		for r := 0; r < share; r++ {
			dr, mr := donor.Row(r), mounted.Row(r)
			for c := range dr {
				if dr[c] != mr[c] {
					t.Fatalf("share=%d row %d: COW lost mounted contents", share, r)
				}
			}
		}

		// Donor gone: shared full pages stay alive for the mounted store.
		donor.Release()
		for r := 0; r < share; r++ {
			if mounted.Row(r)[0] != src.Row(r)[0] {
				t.Fatalf("share=%d: mounted row %d lost after donor release", share, r)
			}
		}
		mounted.Release()
		if got := pool.InUse(); got != 0 {
			t.Fatalf("share=%d: %d pages leaked", share, got)
		}
		allocs, frees := pool.Counters()
		if allocs != frees {
			t.Fatalf("share=%d: counters unbalanced: %d allocs, %d frees", share, allocs, frees)
		}
	}
}

// TestBlockPoolRefcount: Retain/Release reference accounting — a page
// survives any one holder's release, InUse counts distinct pages, and
// over-release panics.
func TestBlockPoolRefcount(t *testing.T) {
	pool := NewBlockPool(2, 2, 0)
	p := NewPagedRows(pool, 0)
	p.AppendRow([]float64{1, 2})
	pages := p.SharePages(1)
	pool.Retain(pages[0])
	if got := pool.InUse(); got != 1 {
		t.Fatalf("InUse %d with one thrice-held page, want 1", got)
	}
	p.Release()
	pool.Release(pages[0])
	if got := pool.InUse(); got != 1 {
		t.Fatalf("page freed while a reference remains (InUse %d)", got)
	}
	if pages[0].data[0] != 1 {
		t.Fatal("page contents lost while still referenced")
	}
	pool.Release(pages[0])
	if got := pool.InUse(); got != 0 {
		t.Fatalf("InUse %d after final release", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release past zero references must panic")
		}
	}()
	pool.Release(pages[0])
}

// TestPagedRowsReleaseReuse: a released store is empty and append-ready,
// and recycled pages never leak previous contents into visible rows.
func TestPagedRowsReleaseReuse(t *testing.T) {
	pool := NewBlockPool(3, 2, 0)
	p := NewPagedRows(pool, 0)
	p.AppendRow([]float64{1, 2, 3})
	p.AppendRow([]float64{4, 5, 6})
	p.Release()
	if p.Rows() != 0 {
		t.Fatalf("rows %d after Release", p.Rows())
	}
	p.AppendRow([]float64{7, 8, 9})
	if got := p.Row(0); got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Fatalf("row after reuse %v", got)
	}
	if _, run := p.Span(0); run != 1 {
		t.Fatalf("span run %d over a partially filled page, want 1", run)
	}
}
