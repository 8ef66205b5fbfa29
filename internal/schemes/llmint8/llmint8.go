// Package llmint8 implements the LLM.int8()-style mixed-precision
// decomposition described in §II-C (Dettmers et al., NeurIPS 2022):
// activation columns whose calibrated magnitude exceeds a threshold are
// kept in FP16 while the remaining columns (and the matching weight rows)
// are quantized to INT8 with per-row/per-column scales. The two partial
// products are combined in floating point — the dequantization overhead the
// paper identifies.
package llmint8

import (
	"tender/internal/quant"
	"tender/internal/schemes"
	"tender/internal/tensor"
)

// DefaultThreshold is the outlier magnitude threshold (6.0 in LLM.int8()).
const DefaultThreshold = 6.0

// Scheme is the LLM.int8() factory.
type Scheme struct {
	// Threshold overrides DefaultThreshold when nonzero.
	Threshold float64
}

// New returns the scheme with the original threshold.
func New() Scheme { return Scheme{} }

// Name implements schemes.Scheme.
func (Scheme) Name() string { return "LLM.int8()" }

type site struct {
	bits        int
	outlierCols []int
	normalCols  []int
	gemm        tensor.Kernel
}

// NewSite implements schemes.Scheme: outlier columns are identified from
// calibration samples.
func (s Scheme) NewSite(xs, _ []*tensor.Matrix, bits int) schemes.SiteKernel {
	if len(xs) == 0 {
		panic("llmint8: calibration requires activation samples")
	}
	thr := s.Threshold
	if thr == 0 {
		thr = DefaultThreshold
	}
	cols := xs[0].Cols
	mx := make([]float64, cols)
	for _, x := range xs {
		for c, v := range x.AbsMaxPerCol() {
			if v > mx[c] {
				mx[c] = v
			}
		}
	}
	st := &site{bits: bits}
	for c, v := range mx {
		if v > thr {
			st.outlierCols = append(st.outlierCols, c)
		} else {
			st.normalCols = append(st.normalCols, c)
		}
	}
	return st
}

// packed is the compiled weight decomposition: the INT8-quantized normal
// rows and the FP16-rounded outlier rows, split once at prepare time.
type packed struct {
	outCols int
	wq      *tensor.Matrix // normal rows, per-column quantized (nil if none)
	wo      *tensor.Matrix // outlier rows, FP16-rounded (nil if none)
}

// PrepareWeights implements schemes.SiteKernel: the weight matrix is split
// along the calibrated outlier rows and each half is encoded once.
func (st *site) PrepareWeights(w *tensor.Matrix) schemes.PackedWeights {
	p := &packed{outCols: w.Cols}
	if len(st.normalCols) > 0 {
		wn := w.Transpose().SubCols(st.normalCols).Transpose()
		p.wq = quant.FakeQuant(wn, quant.Config{Bits: st.bits, Gran: quant.PerColumn})
	}
	if len(st.outlierCols) > 0 {
		wo := w.Transpose().SubCols(st.outlierCols).Transpose()
		tensor.F16RoundInPlace(wo)
		p.wo = wo
	}
	return p
}

// Apply implements schemes.SiteKernel: the two partial products are
// combined in floating point — the dequantization overhead the paper
// identifies.
func (st *site) Apply(x *tensor.Matrix, pw schemes.PackedWeights) *tensor.Matrix {
	p := pw.(*packed)
	out := tensor.New(x.Rows, p.outCols)
	if p.wq != nil {
		xn := x.SubCols(st.normalCols)
		xq := quant.FakeQuant(xn, quant.Config{Bits: st.bits, Gran: quant.PerRow})
		tensor.AddInPlace(out, tensor.GEMM(st.gemm, xq, p.wq))
	}
	if p.wo != nil {
		// FP16 path for outlier columns (outliers are the half the
		// decomposition keeps exact).
		xo := x.SubCols(st.outlierCols)
		tensor.F16RoundInPlace(xo)
		tensor.AddInPlace(out, tensor.GEMM(st.gemm, xo, p.wo))
	}
	return out
}

// SetGEMMKernel implements schemes.GEMMKernelSetter: both float halves
// run on the backend (tolerance-gated).
func (st *site) SetGEMMKernel(k tensor.Kernel) { st.gemm = k }

// ApplyRowIndependent implements schemes.RowIndependent: the outlier-column
// split is calibrated once, the INT8 half quantizes with per-row scales and
// the FP16 half rounds elementwise — no row sees another.
func (st *site) ApplyRowIndependent() bool { return true }
