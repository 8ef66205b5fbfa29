package tensor

import (
	"math"
	"testing"
)

// kernelRNG is a tiny deterministic generator for test matrices.
type kernelRNG uint64

func (r *kernelRNG) next() float64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return float64(int64(*r)%2000)/1000.0 - 0.0005
}

func kernelMat(rows, cols int, seed uint64, sparse bool) *Matrix {
	r := kernelRNG(seed | 1)
	m := New(rows, cols)
	for i := range m.Data {
		v := r.next()
		if sparse && i%5 == 0 {
			v = 0 // exercise the naive kernel's zero-skip against dense blocked
		}
		m.Data[i] = v
	}
	return m
}

func kernelMatInt(rows, cols int, seed uint64) []int8 {
	r := kernelRNG(seed | 1)
	m := make([]int8, rows*cols)
	for i := range m {
		m[i] = int8(int64(math.Round(r.next()*127)) % 128)
	}
	return m
}

func TestKernelByName(t *testing.T) {
	for _, name := range []string{"", "naive"} {
		if k, err := KernelByName(name); err != nil || k != nil {
			t.Fatalf("KernelByName(%q) = %v, %v; want the nil reference kernel", name, k, err)
		}
	}
	if k, err := KernelByName("blocked"); err != nil || k != KernelBlocked || k.Name() != "blocked" {
		t.Fatalf("KernelByName(blocked) = %v, %v", k, err)
	}
	if _, err := KernelByName("nosuch"); err == nil {
		t.Fatal("KernelByName must reject unknown kernels")
	}
}

// TestNaiveKernelBitIdentical: the naive route (a nil Kernel, what
// kernel=naive resolves to) is byte-for-byte the reference MatMul — it is
// the default engines are built with, so GEMM and GEMMInto must not
// perturb a single bit.
func TestNaiveKernelBitIdentical(t *testing.T) {
	for _, sh := range [][2]int{{1, 7}, {8, 128}, {33, 65}} {
		a := kernelMat(sh[0], sh[1], uint64(sh[0]*1000+sh[1]), true)
		b := kernelMat(sh[1], 97, uint64(sh[1]), false)
		want := MatMul(a, b)
		got := GEMM(nil, a, b)
		into := New(a.Rows, b.Cols)
		GEMMInto(nil, a, b, into)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) ||
				math.Float64bits(into.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%dx%d: naive kernel differs from MatMul at %d", sh[0], sh[1], i)
			}
		}
	}
}

// TestBlockedKernelFloatParity: the blocked float kernel reorders the
// accumulation (dense, KC-blocked), so it is gated by tolerance, not bits.
func TestBlockedKernelFloatParity(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 128, 512}, {3, 5, 2}, {4, 4, 4},
		{8, 128, 128}, {8, 512, 128}, {32, 128, 512},
		{65, 129, 131}, {130, 300, 70}, {256, 512, 256},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := kernelMat(m, k, uint64(m*7+k), true)
		b := kernelMat(k, n, uint64(k*13+n), false)
		want := MatMul(a, b)
		got := GEMM(KernelBlocked, a, b)
		for i := range want.Data {
			w, g := want.Data[i], got.Data[i]
			tol := 1e-12 * (1 + math.Abs(w))
			if math.Abs(w-g) > tol {
				t.Fatalf("%dx%dx%d: blocked differs at %d: %g vs %g", m, k, n, i, g, w)
			}
		}
	}
}

// TestBlockedKernelFloatDeterministic: a row's product must depend only on
// that row and the weights — never on the batch it is stacked with — and
// repeated runs must agree bitwise. This is what lets fused decode and the
// per-request path share one blocked kernel without breaking the
// fused-vs-sequential bit-identity gates.
func TestBlockedKernelFloatDeterministic(t *testing.T) {
	k, n := 192, 144
	b := kernelMat(k, n, 99, false)
	big := kernelMat(160, k, 7, true)
	wantBig := GEMM(KernelBlocked, big, b)
	again := GEMM(KernelBlocked, big, b)
	for i := range wantBig.Data {
		if math.Float64bits(wantBig.Data[i]) != math.Float64bits(again.Data[i]) {
			t.Fatal("blocked kernel is not run-to-run deterministic")
		}
	}
	// Row independence: slice single rows out and multiply them alone.
	for _, r := range []int{0, 3, 63, 64, 159} {
		one := big.RowView(r, r+1)
		got := GEMM(KernelBlocked, one, b)
		for j := 0; j < n; j++ {
			if math.Float64bits(got.Data[j]) != math.Float64bits(wantBig.At(r, j)) {
				t.Fatalf("row %d col %d: batched and solo blocked products differ bitwise", r, j)
			}
		}
	}
}

// TestMatMulIntInto: the caller-owned-accumulator spelling of the integer
// GEMM matches MatMulInt exactly for every shape, overwriting whatever the
// accumulator held, and allocates nothing at a fused-decode shape
// (8 rows × 512 × 256).
func TestMatMulIntInto(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 128, 512}, {2, 3, 5}, {4, 4, 4},
		{8, 128, 128}, {32, 512, 128}, {65, 129, 131}, {300, 260, 70},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := kernelMatInt(m, k, uint64(m*31+k))
		b := kernelMatInt(k, n, uint64(k*17+n))
		want := MatMulInt(m, k, a, n, b)
		got := make([]int32, m*n)
		for i := range got {
			got[i] = -1
		}
		MatMulIntInto(m, k, a, n, b, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: MatMulIntInto differs from MatMulInt at %d: %d vs %d", m, k, n, i, got[i], want[i])
			}
		}
	}
	const m, k, n = 8, 512, 256
	a, b := kernelMatInt(m, k, 3), kernelMatInt(k, n, 4)
	acc := make([]int32, m*n)
	if allocs := testing.AllocsPerRun(50, func() {
		MatMulIntInto(m, k, a, n, b, acc)
	}); allocs != 0 {
		t.Fatalf("MatMulIntInto allocates %.1f times per call; want 0", allocs)
	}
}

// TestBlockedKernelSpecialValues: the dense blocked kernel multiplies
// through zeros instead of skipping them, so 0×Inf contributes NaN — a
// genuine semantic difference from the naive reference that the tolerance
// gate (not bit-identity) owns. Pin it down so the difference stays
// documented behaviour, not an accident.
func TestBlockedKernelSpecialValues(t *testing.T) {
	a := FromSlice(1, 2, []float64{0, 1})
	b := FromSlice(2, 1, []float64{math.Inf(1), 3})
	naive := GEMM(nil, a, b)
	blocked := GEMM(KernelBlocked, a, b)
	if naive.Data[0] != 3 {
		t.Fatalf("naive zero-skip must skip 0×Inf, got %g", naive.Data[0])
	}
	if !math.IsNaN(blocked.Data[0]) {
		t.Fatalf("blocked dense kernel multiplies through zeros, want NaN, got %g", blocked.Data[0])
	}
}

// TestBlockedKernelAllocs: steady-state blocked GEMM must not allocate —
// pack buffers are pooled, so the 0 allocs/token decode gate holds with
// kernel=blocked engines.
func TestBlockedKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime randomly drops sync.Pool items; alloc gate runs in the non-race CI lanes")
	}
	a := kernelMat(32, 128, 5, false)
	b := kernelMat(128, 512, 6, false)
	out := New(32, 512)
	KernelBlocked.MatMul(a, b, out) // warm the scratch pool
	if n := testing.AllocsPerRun(50, func() {
		KernelBlocked.MatMul(a, b, out)
	}); n > 0.5 {
		t.Fatalf("blocked GEMM allocates %.1f times per call, want 0", n)
	}
}
