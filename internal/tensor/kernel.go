package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Kernel is a pluggable float64 GEMM backend that overwrites its
// destination. The serving layers select one per engine spec (the
// `kernel=` option); a nil Kernel means the package-level reference
// MatMul/MatMulInto. Integer GEMMs have one implementation,
// MatMulInt/MatMulIntInto, and no backend choice.
//
// The one implementation, KernelBlocked, is register-tiled and
// cache-blocked: packed A/B panels, an MR×NR micro-kernel with unrolled
// accumulators, and KC/MC/NC loop blocking sized for L1/L2. It accumulates
// each output element in strictly k-ascending order — deterministic,
// row-independent, and independent of the batch composition — but groups
// the sum differently from the reference (no zero-skip, KC-block partials,
// fused multiply-add on hardware that has it), so its results are gated by
// tolerance + the quality harness rather than bit-identity. Results are
// reproducible on one machine but may differ in low bits across ISAs (FMA
// vs separate rounding).
type Kernel interface {
	// Name returns the spec-option spelling ("blocked").
	Name() string
	// MatMul computes a×b into out (a.Rows × b.Cols), overwriting out.
	MatMul(a, b, out *Matrix)
}

// KernelBlocked is the register-tiled cache-blocked kernel.
var KernelBlocked Kernel = blockedKernel{}

// KernelByName resolves a `kernel=` spec-option value. The empty string
// and "naive" mean the reference GEMM, returned as a nil Kernel.
func KernelByName(name string) (Kernel, error) {
	switch name {
	case "", "naive":
		return nil, nil
	case "blocked":
		return KernelBlocked, nil
	default:
		return nil, fmt.Errorf("tensor: unknown kernel %q (have naive, blocked)", name)
	}
}

// GEMM computes a×b with kern, or with the reference MatMul when kern is
// nil.
func GEMM(kern Kernel, a, b *Matrix) *Matrix {
	if kern == nil {
		return MatMul(a, b)
	}
	out := New(a.Rows, b.Cols)
	kern.MatMul(a, b, out)
	return out
}

// GEMMInto computes a×b into out with kern, or with the reference
// MatMulInto when kern is nil.
func GEMMInto(kern Kernel, a, b, out *Matrix) {
	if kern == nil {
		MatMulInto(a, b, out)
		return
	}
	kern.MatMul(a, b, out)
}

// Blocking parameters. The micro-tile is MR×NR = 4×8: eight YMM
// accumulators on AVX2 (two 4-wide FMA lanes per A row), or eight scalar
// accumulators per row on the generic fallback. KC is the reduction block
// (one packed B strip of KC×NR float64 is 16 KiB — L1 resident); MC×KC
// bounds the packed A panel (~128 KiB — L2 resident); NC bounds the packed
// B panel.
const (
	gemmMR = 4
	gemmNR = 8
	gemmKC = 256
	gemmMC = 64
	gemmNC = 128
)

// gemmScratch holds one goroutine's pack buffers, recycled through
// gemmScratchPool so steady-state blocked GEMM allocates nothing.
type gemmScratch struct {
	ap, bp []float64
}

var gemmScratchPool = sync.Pool{New: func() any { return new(gemmScratch) }}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func roundUp(n, to int) int { return (n + to - 1) / to * to }

type blockedKernel struct{}

func (blockedKernel) Name() string { return "blocked" }

// MatMul is the blocked float64 GEMM. out is zeroed, then KC-block partial
// products are accumulated into it in ascending pc order, so every output
// element sums its k terms in strictly ascending order — the result depends
// only on (a row i, b), never on the batch around it or the goroutine
// sharding.
func (blockedKernel) MatMul(a, b, out *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: blocked MatMul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: blocked MatMul result %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	parallel := m*k*n >= parallelThreshold && m >= 2*gemmMC && runtime.GOMAXPROCS(0) > 1
	for jc := 0; jc < n; jc += gemmNC {
		ncEff := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kcEff := min(gemmKC, k-pc)
			// The packed B panel for this (jc, pc) block is shared read-only
			// by every A block, including parallel ones.
			s := gemmScratchPool.Get().(*gemmScratch)
			s.bp = growF64(s.bp, roundUp(ncEff, gemmNR)*kcEff)
			packB(b, pc, kcEff, jc, ncEff, s.bp)
			if parallel {
				blockedParallelF64(a, out, s.bp, m, jc, ncEff, pc, kcEff)
			} else {
				for ic := 0; ic < m; ic += gemmMC {
					mcEff := min(gemmMC, m-ic)
					s.ap = growF64(s.ap, roundUp(mcEff, gemmMR)*kcEff)
					packA(a, ic, mcEff, pc, kcEff, s.ap)
					gemmBlockF64(s.ap, s.bp, out, ic, mcEff, jc, ncEff, kcEff)
				}
			}
			gemmScratchPool.Put(s)
		}
	}
}

// blockedParallelF64 fans one (jc, pc) B-panel's A blocks across
// goroutines. Each worker packs its A blocks into its own pooled scratch;
// the B panel is shared read-only. Sharding is by whole MC blocks of
// output rows, so it can never change a single element's accumulation
// order. Hoisted out of MatMul so the closure (and its captures) only
// exist when goroutines actually launch — the serial hot path stays
// allocation-free.
func blockedParallelF64(a, out *Matrix, bp []float64, m, jc, ncEff, pc, kcEff int) {
	blocks := (m + gemmMC - 1) / gemmMC
	parallelRows(blocks, func(lo, hi int) {
		sc := gemmScratchPool.Get().(*gemmScratch)
		for bi := lo; bi < hi; bi++ {
			ic := bi * gemmMC
			mcEff := min(gemmMC, m-ic)
			sc.ap = growF64(sc.ap, roundUp(mcEff, gemmMR)*kcEff)
			packA(a, ic, mcEff, pc, kcEff, sc.ap)
			gemmBlockF64(sc.ap, bp, out, ic, mcEff, jc, ncEff, kcEff)
		}
		gemmScratchPool.Put(sc)
	})
}

// packA writes rows [ic, ic+mcEff) × cols [pc, pc+kcEff) of a as MR-row
// panels: panel r holds rows ic+r*MR.., k-major, MR values per k (rows past
// the edge zero-padded so the micro-kernel needs no row masking).
func packA(a *Matrix, ic, mcEff, pc, kcEff int, ap []float64) {
	idx := 0
	for ir := 0; ir < mcEff; ir += gemmMR {
		if ir+gemmMR <= mcEff {
			r0 := a.Data[(ic+ir)*a.Cols:]
			r1 := a.Data[(ic+ir+1)*a.Cols:]
			r2 := a.Data[(ic+ir+2)*a.Cols:]
			r3 := a.Data[(ic+ir+3)*a.Cols:]
			for p := pc; p < pc+kcEff; p++ {
				ap[idx] = r0[p]
				ap[idx+1] = r1[p]
				ap[idx+2] = r2[p]
				ap[idx+3] = r3[p]
				idx += gemmMR
			}
			continue
		}
		for p := pc; p < pc+kcEff; p++ {
			for r := 0; r < gemmMR; r++ {
				if ir+r < mcEff {
					ap[idx] = a.Data[(ic+ir+r)*a.Cols+p]
				} else {
					ap[idx] = 0
				}
				idx++
			}
		}
	}
}

// packB writes rows [pc, pc+kcEff) × cols [jc, jc+ncEff) of b as NR-column
// panels: panel j holds cols jc+j*NR.., k-major, NR values per k (cols past
// the edge zero-padded).
func packB(b *Matrix, pc, kcEff, jc, ncEff int, bp []float64) {
	idx := 0
	for jr := 0; jr < ncEff; jr += gemmNR {
		if jr+gemmNR <= ncEff {
			for p := pc; p < pc+kcEff; p++ {
				row := b.Data[p*b.Cols+jc+jr:]
				row = row[:gemmNR]
				copy(bp[idx:idx+gemmNR], row)
				idx += gemmNR
			}
			continue
		}
		w := ncEff - jr
		for p := pc; p < pc+kcEff; p++ {
			row := b.Data[p*b.Cols+jc+jr:]
			for s := 0; s < w; s++ {
				bp[idx] = row[s]
				idx++
			}
			for s := w; s < gemmNR; s++ {
				bp[idx] = 0
				idx++
			}
		}
	}
}

// gemmBlockF64 multiplies one packed A block by one packed B panel,
// accumulating into out[ic:ic+mcEff, jc:jc+ncEff].
func gemmBlockF64(ap, bp []float64, out *Matrix, ic, mcEff, jc, ncEff, kcEff int) {
	var c [gemmMR * gemmNR]float64
	for jr := 0; jr < ncEff; jr += gemmNR {
		bpp := bp[(jr/gemmNR)*kcEff*gemmNR:]
		for ir := 0; ir < mcEff; ir += gemmMR {
			app := ap[(ir/gemmMR)*kcEff*gemmMR:]
			if useAVX2FMA {
				microAVX2F64(kcEff, &app[0], &bpp[0], &c[0])
			} else {
				microGoF64(kcEff, app, bpp, &c)
			}
			mrEff := min(gemmMR, mcEff-ir)
			nrEff := min(gemmNR, ncEff-jr)
			for r := 0; r < mrEff; r++ {
				orow := out.Data[(ic+ir+r)*out.Cols+jc+jr:]
				crow := c[r*gemmNR : r*gemmNR+gemmNR]
				for s := 0; s < nrEff; s++ {
					orow[s] += crow[s]
				}
			}
		}
	}
}

// microGoF64 is the portable MR×NR register tile: one A row at a time with
// NR scalar accumulators, so accumulators + operands stay within the FP
// register file. On amd64 with AVX2+FMA the assembly micro-kernel
// (microAVX2F64) replaces it — same tile shape, packed-FMA arithmetic.
func microGoF64(kc int, ap, bp []float64, c *[gemmMR * gemmNR]float64) {
	for r := 0; r < gemmMR; r++ {
		var c0, c1, c2, c3, c4, c5, c6, c7 float64
		a := ap[r:]
		bb := bp
		for p := 0; p < kc; p++ {
			av := a[0]
			c0 += av * bb[0]
			c1 += av * bb[1]
			c2 += av * bb[2]
			c3 += av * bb[3]
			c4 += av * bb[4]
			c5 += av * bb[5]
			c6 += av * bb[6]
			c7 += av * bb[7]
			if p+1 < kc {
				a = a[gemmMR:]
				bb = bb[gemmNR:]
			}
		}
		c[r*gemmNR+0] = c0
		c[r*gemmNR+1] = c1
		c[r*gemmNR+2] = c2
		c[r*gemmNR+3] = c3
		c[r*gemmNR+4] = c4
		c[r*gemmNR+5] = c5
		c[r*gemmNR+6] = c6
		c[r*gemmNR+7] = c7
	}
}
