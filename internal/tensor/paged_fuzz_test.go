package tensor

import (
	"slices"
	"testing"
)

// Op encoding for FuzzPagedRowsOps: two bytes per operation, kind then
// argument. Stores live in fuzzSlots slots; the low two argument bits pick
// a slot and the rest pick a count.
const (
	fuzzAppend   = iota // append 1..pageRows rows to slot arg&3
	fuzzShare           // mount a prefix of slot arg&3 into an empty slot; kind bit 2: append right after (copy-on-write)
	fuzzRelease         // release slot arg&3
	fuzzDropHeld        // drop the oldest externally held page references
	fuzzKinds
)

const (
	fuzzSlots    = 4
	fuzzMaxHeld  = 2
	fuzzPageRows = 4
	fuzzMaxRows  = 6 * fuzzPageRows
	fuzzCols     = 3
)

// FuzzPagedRowsOps drives PagedRows stores over one small bounded pool with
// arbitrary interleavings of append, SharePages + MountShared into another
// store (the share's page references kept by an external holder, as the
// prefix cache does), copy-on-write appends after a mount, store release
// and holder release. After every operation each live store's Row and
// Span walk must equal the rows as appended (so an append by one holder of
// shared pages must leave every other holder's rows alone),
// every page's reference count must equal its holders, and every append
// must acquire exactly the pages PagesToGrow predicted. Once everything
// is released the pool must be empty with balanced counters.
func FuzzPagedRowsOps(f *testing.F) {
	op := func(kind, arg byte) []byte { return []byte{kind, arg} }
	appendRows := func(slot, n int) []byte { return op(fuzzAppend, byte(slot|(n-1)<<2)) }
	// Nine rows in slot 0, shared at page−1, page and page+1 rows with an
	// immediate copy-on-write append, then divergent appends on both sides
	// and releases in both orders.
	for _, share := range []int{fuzzPageRows - 1, fuzzPageRows, fuzzPageRows + 1} {
		var seed []byte
		seed = append(seed, appendRows(0, 4)...)
		seed = append(seed, appendRows(0, 4)...)
		seed = append(seed, appendRows(0, 1)...)
		seed = append(seed, op(fuzzShare|4, byte((share-1)<<2))...)
		seed = append(seed, appendRows(1, 3)...)
		seed = append(seed, appendRows(0, 2)...)
		seed = append(seed, op(fuzzRelease, 0)...)
		seed = append(seed, appendRows(1, 4)...)
		seed = append(seed, op(fuzzDropHeld, 0)...)
		seed = append(seed, op(fuzzRelease, 1)...)
		f.Add(seed)
	}
	// A chain of mounts: 0 → 1 → 2 without copy-on-write, then appends
	// into the last store while its ancestors still hold the pages.
	f.Add([]byte{
		fuzzAppend, 3 << 2, fuzzAppend, 1 << 2,
		fuzzShare, 5 << 2,
		fuzzShare, 1 | 2<<2,
		fuzzAppend, 2 | 3<<2,
		fuzzDropHeld, 0, fuzzRelease, 0, fuzzAppend, 1,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		runPagedOps(t, data)
	})
}

func runPagedOps(t *testing.T, data []byte) {
	// Bound: every slot full and every holder set distinct, plus the one
	// transient page of a copy-on-write.
	pagesPerStore := fuzzMaxRows / fuzzPageRows
	pool := NewBlockPool(fuzzCols, fuzzPageRows, (fuzzSlots+fuzzMaxHeld)*pagesPerStore+1)
	var stores [fuzzSlots]*PagedRows
	var refs [fuzzSlots][][]float64
	var held [][]*Page
	rng := NewRNG(uint64(len(data)))

	appendTo := func(s int) {
		if stores[s].Rows() >= fuzzMaxRows {
			return
		}
		row := make([]float64, fuzzCols)
		for c := range row {
			row[c] = rng.Norm()
		}
		want := stores[s].PagesToGrow(stores[s].Rows() + 1)
		before, _ := pool.Counters()
		stores[s].AppendRow(row)
		if after, _ := pool.Counters(); after-before != int64(want) {
			t.Fatalf("append acquired %d pages, PagesToGrow predicted %d", after-before, want)
		}
		refs[s] = append(refs[s], row)
	}
	dropHeld := func() {
		for _, pg := range held[0] {
			pool.Release(pg)
		}
		held = held[1:]
	}

	for i := 0; i+1 < len(data); i += 2 {
		kind, arg := data[i], data[i+1]
		s := int(arg & 3)
		switch kind % fuzzKinds {
		case fuzzAppend:
			if stores[s] == nil {
				stores[s] = NewPagedRows(pool, 0)
			}
			n := 1 + int(arg>>2)%fuzzPageRows
			want := stores[s].PagesToGrow(min(stores[s].Rows()+n, fuzzMaxRows))
			before, _ := pool.Counters()
			for ; n > 0; n-- {
				appendTo(s)
			}
			if after, _ := pool.Counters(); after-before != int64(want) {
				t.Fatalf("step %d: appends acquired %d pages, PagesToGrow predicted %d", i/2, after-before, want)
			}
		case fuzzShare:
			src := stores[s]
			dst := -1
			for d := 1; d < fuzzSlots; d++ {
				if c := (s + d) % fuzzSlots; stores[c] == nil || stores[c].Rows() == 0 {
					dst = c
					break
				}
			}
			if src == nil || src.Rows() == 0 || dst < 0 {
				continue
			}
			n := 1 + int(arg>>2)%src.Rows()
			if len(held) == fuzzMaxHeld {
				dropHeld()
			}
			pages := src.SharePages(n)
			held = append(held, pages)
			if stores[dst] == nil {
				stores[dst] = NewPagedRows(pool, 0)
			}
			stores[dst].MountShared(pages, n)
			refs[dst] = append([][]float64(nil), refs[s][:n]...)
			if kind&4 != 0 {
				appendTo(dst)
			}
		case fuzzRelease:
			if stores[s] != nil {
				stores[s].Release()
				refs[s] = nil
			}
		case fuzzDropHeld:
			if len(held) > 0 {
				dropHeld()
			}
		}
		checkPagedStores(t, pool, stores[:], refs[:], held, i/2)
	}

	for s := range stores {
		if stores[s] != nil {
			stores[s].Release()
		}
	}
	for len(held) > 0 {
		dropHeld()
	}
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%d pages in use after every holder released", n)
	}
	if allocs, frees := pool.Counters(); allocs != frees {
		t.Fatalf("counters unbalanced: %d allocs, %d frees", allocs, frees)
	}
}

// checkPagedStores compares every store's Row and Span walk with its
// reference rows, and every page's reference count and the pool's
// in-use count with the holders that reach it.
func checkPagedStores(t *testing.T, pool *BlockPool, stores []*PagedRows, refs [][][]float64, held [][]*Page, step int) {
	t.Helper()
	holders := map[*Page]int{}
	for s, p := range stores {
		if p == nil {
			continue
		}
		for _, pg := range p.pages {
			holders[pg]++
		}
		want := refs[s]
		if p.Rows() != len(want) {
			t.Fatalf("step %d: slot %d has %d rows, want %d", step, s, p.Rows(), len(want))
		}
		for r, w := range want {
			if !slices.Equal(p.Row(r), w) {
				t.Fatalf("step %d: slot %d Row(%d) = %v, want %v", step, s, r, p.Row(r), w)
			}
		}
		for r := 0; r < len(want); {
			span, n := p.Span(r)
			if n < 1 || r+n > len(want) || len(span) != n*fuzzCols {
				t.Fatalf("step %d: slot %d Span(%d) run %d of %d rows", step, s, r, n, len(want))
			}
			for j := 0; j < n; j++ {
				if !slices.Equal(span[j*fuzzCols:(j+1)*fuzzCols], want[r+j]) {
					t.Fatalf("step %d: slot %d Span(%d) row %d differs", step, s, r, j)
				}
			}
			r += n
		}
	}
	for _, pages := range held {
		for _, pg := range pages {
			holders[pg]++
		}
	}
	for pg, n := range holders {
		if pg.refs != n {
			t.Fatalf("step %d: page has %d references, %d holders", step, pg.refs, n)
		}
	}
	if got := pool.InUse(); got != len(holders) || pool.Free() != pool.Cap()-got {
		t.Fatalf("step %d: pool reports %d pages in use and %d free of %d, holders reach %d",
			step, got, pool.Free(), pool.Cap(), len(holders))
	}
}
