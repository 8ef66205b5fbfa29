package tensor

import "testing"

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := NewRNG(3)
	for _, shape := range [][3]int{{1, 64, 32}, {8, 128, 512}, {128, 96, 80}} {
		a := RandNormal(rng, shape[0], shape[1], 1)
		b := RandNormal(rng, shape[1], shape[2], 1)
		want := MatMul(a, b)
		out := New(shape[0], shape[2])
		// Dirty the destination: MatMulInto must fully overwrite it.
		for i := range out.Data {
			out.Data[i] = 42
		}
		MatMulInto(a, b, out)
		if MaxAbsDiff(want, out) != 0 {
			t.Fatalf("MatMulInto differs from MatMul at %v", shape)
		}
	}
}

func TestMatMulIntoPanicsOnBadResultShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulInto(New(2, 3), New(3, 4), New(2, 3))
}

// TestMatMulIntParallelMatchesSequential: the row-block sharded integer
// GEMM must agree exactly with the sequential kernel at every size around
// the parallel threshold.
func TestMatMulIntParallelMatchesSequential(t *testing.T) {
	rng := NewRNG(17)
	for _, shape := range [][3]int{{3, 5, 4}, {64, 96, 64}, {128, 128, 64}} {
		rows, inner, cols := shape[0], shape[1], shape[2]
		a := make([]int8, rows*inner)
		b := make([]int8, inner*cols)
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
		}
		for i := range b {
			b[i] = int8(rng.Intn(255) - 127)
		}
		got := MatMulInt(rows, inner, a, cols, b)
		want := make([]int32, rows*cols)
		matmulIntRows(inner, a, cols, b, want, 0, rows)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %v: parallel int GEMM differs at %d", shape, i)
			}
		}
	}
}

func TestArenaReusesSlabs(t *testing.T) {
	a := NewArena()
	m := a.Get(4, 8)
	if m.Rows != 4 || m.Cols != 8 || len(m.Data) != 32 {
		t.Fatalf("Get shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	a.Put(m)
	// A same-class Get must come back zeroed regardless of reuse.
	n := a.Get(5, 6)
	if n.Rows != 5 || n.Cols != 6 {
		t.Fatalf("Get shape after Put: %dx%d", n.Rows, n.Cols)
	}
	for i, v := range n.Data {
		if v != 0 {
			t.Fatalf("reused matrix not zeroed at %d: %v", i, v)
		}
	}
	// Steady state is allocation-free: warm the class, then Get/Put loops
	// must not allocate.
	a.Put(n)
	allocs := testing.AllocsPerRun(100, func() {
		m := a.Get(4, 8)
		a.Put(m)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.0f times", allocs)
	}
}

func TestArenaGrowsAcrossClasses(t *testing.T) {
	a := NewArena()
	small := a.Get(2, 2)
	a.Put(small)
	big := a.Get(100, 100)
	if len(big.Data) != 100*100 {
		t.Fatalf("big slab len %d", len(big.Data))
	}
	a.Put(big)
	again := a.Get(120, 120) // same power-of-two class as 100x100, must reuse
	if cap(again.Data) < 16384 {
		t.Fatalf("expected class reuse, cap %d", cap(again.Data))
	}
}
