package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the number of multiply-adds above which MatMul shards
// work across goroutines. Below it the sequential kernel is faster.
const parallelThreshold = 1 << 18

// MatMul returns a × b. It panics if the inner dimensions disagree.
//
// The kernel is the cache-friendly i-k-j ordering (the b row is streamed for
// each a element), sharded across GOMAXPROCS goroutines by row blocks for
// large products.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	matmulInto(a, b, out)
	return out
}

// MatMulInto computes a × b into out, which must be a.Rows × b.Cols. The
// result is bit-identical to MatMul — every output row accumulates in the
// same k-ascending order with the same zero-skip — so hot paths can reuse
// a scratch matrix without changing a single bit of the product.
func MatMulInto(a, b, out *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulInto %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto result %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	matmulInto(a, b, out)
}

// matmulInto runs the shared (possibly sharded) kernel into a zeroed out.
func matmulInto(a, b, out *Matrix) {
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold || a.Rows < 2 || runtime.GOMAXPROCS(0) == 1 {
		matmulRows(a, b, out, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matmulRows(a, b, out, lo, hi) })
}

// parallelRows fans kernel out over row blocks, one per available worker.
// Callers take the sequential path themselves when parallelism cannot pay
// (small work, one row, GOMAXPROCS=1), so the kernel closure is only
// constructed — and only escapes — when goroutines actually launch; the
// allocation-free hot path never reaches here.
func parallelRows(rows int, kernel func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kernel(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func matmulRows(a, b, out *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)[:n]
		for k, av := range arow {
			// The zero-skip is part of the reference bit contract (skipping
			// k is not the same as adding av*bv when bv is Inf/NaN, and
			// -0+0 differs from never adding), so it stays in this kernel
			// even though the branch costs ~5-10% on dense activations —
			// the dense path is KernelBlocked's job (BenchmarkBlockedGEMM
			// documents the tradeoff).
			if av == 0 {
				continue
			}
			// Unrolled by four: the one-element loop body ran ~20% slower
			// whenever the linker happened to put its header on a 64-byte
			// boundary (the rotated loop then straddled two cache lines),
			// so unrelated code-size changes moved calibration time. Each
			// orow[j] still adds av*b[k][j] once per k, in ascending k.
			brow := b.Data[k*n : k*n+n]
			j := 0
			for ; j+4 <= n; j += 4 {
				o, bv := orow[j:j+4:j+4], brow[j:j+4:j+4]
				o[0] += av * bv[0]
				o[1] += av * bv[1]
				o[2] += av * bv[2]
				o[3] += av * bv[3]
			}
			for ; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// MatMulInt multiplies two integer matrices stored as []int8 with int32
// accumulation, returning a Rows(a)×Cols(b) []int32 in row-major order.
// It is the reference integer GEMM used by the quantization packages.
//
// Like MatMul it shards large products across GOMAXPROCS goroutines by row
// blocks; integer accumulation is exact, so sharding cannot change the
// result.
func MatMulInt(aRows, aCols int, a []int8, bCols int, b []int8) []int32 {
	if len(a) != aRows*aCols {
		panic("tensor: MatMulInt lhs size mismatch")
	}
	if len(b) != aCols*bCols {
		panic("tensor: MatMulInt rhs size mismatch")
	}
	out := make([]int32, aRows*bCols)
	matmulIntInto(aRows, aCols, a, bCols, b, out)
	return out
}

// MatMulIntInto is MatMulInt into a caller-provided accumulator slice
// (aRows×bCols, overwritten), bit-identical to MatMulInt — the integer hot
// paths (tender:int, llmint8:int) reuse pooled scratch through it instead
// of allocating a fresh []int32 per call.
func MatMulIntInto(aRows, aCols int, a []int8, bCols int, b []int8, out []int32) {
	if len(a) != aRows*aCols {
		panic("tensor: MatMulIntInto lhs size mismatch")
	}
	if len(b) != aCols*bCols {
		panic("tensor: MatMulIntInto rhs size mismatch")
	}
	if len(out) != aRows*bCols {
		panic("tensor: MatMulIntInto result size mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	matmulIntInto(aRows, aCols, a, bCols, b, out)
}

func matmulIntInto(aRows, aCols int, a []int8, bCols int, b []int8, out []int32) {
	work := aRows * aCols * bCols
	if work < parallelThreshold || aRows < 2 || runtime.GOMAXPROCS(0) == 1 {
		matmulIntRows(aCols, a, bCols, b, out, 0, aRows)
		return
	}
	parallelRows(aRows, func(lo, hi int) { matmulIntRows(aCols, a, bCols, b, out, lo, hi) })
}

func matmulIntRows(aCols int, a []int8, bCols int, b []int8, out []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*aCols : (i+1)*aCols]
		orow := out[i*bCols : (i+1)*bCols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			a32 := int32(av)
			brow := b[k*bCols : (k+1)*bCols]
			for j, bv := range brow {
				orow[j] += a32 * int32(bv)
			}
		}
	}
}
