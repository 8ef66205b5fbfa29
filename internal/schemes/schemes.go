// Package schemes defines the common interface every quantization scheme
// (Tender and the paper's baselines) implements, plus the reference
// schemes: FP32, FP16, plain uniform quantization at the three
// granularities of Table I, and the Tender scheme adapter.
//
// The interface is two-phase, mirroring the paper's central split between
// calibration-time precomputation and a cheap runtime hot path (§III-B):
//
//	Scheme.NewSite(xs, ws, bits)  →  SiteKernel        (calibrate once)
//	kernel.PrepareWeights(w)      →  PackedWeights      (compile once)
//	kernel.Apply(x, packed)       →  result             (execute per call)
//
// PrepareWeights runs once per matmul site at calibration/registration
// time and precomputes everything that depends only on the weights —
// quantized weight codes, per-column scales, smoothing-scaled weights,
// outlier-column splits, block exponents. The returned PackedWeights is
// immutable, so concurrent serving sessions share it without locking.
// Apply quantizes only the activation operand. For activation-activation
// matmul sites (attention scores), where the right operand changes every
// call, callers run both phases per call via MatMul; the result is
// identical either way.
package schemes

import (
	"tender/internal/quant"
	"tender/internal/tensor"
)

// PackedWeights is the compiled weight-side state of one matmul site:
// whatever a SiteKernel precomputes from the (fixed) right operand.
// Implementations must be immutable after PrepareWeights returns — they
// are shared across concurrent sessions with no synchronization.
type PackedWeights interface{}

// SiteKernel executes one matmul site with a scheme's quantization error,
// split into a compile stage (PrepareWeights) and an execute stage (Apply).
type SiteKernel interface {
	// PrepareWeights compiles the right operand once. The result must be
	// immutable and safe for concurrent Apply calls.
	PrepareWeights(w *tensor.Matrix) PackedWeights
	// Apply computes x × w including quantization effects, quantizing only
	// the activation operand; packed must come from PrepareWeights on this
	// kernel.
	Apply(x *tensor.Matrix, packed PackedWeights) *tensor.Matrix
}

// RowIndependent is an optional SiteKernel capability: a kernel whose
// ApplyRowIndependent reports true promises that Apply treats every
// activation row independently — Apply over a stacked matrix is bit-
// identical, row for row, to Apply over each row alone. That is the
// property fused batched decode relies on: the serving scheduler stacks
// the current row of several sessions into one matrix and runs each weight
// site once, which only preserves per-session outputs when no row's
// quantization depends on the other rows (runtime whole-tensor statistics,
// cross-row encodings, or row-position metadata all break it).
//
// Kernels that do not implement the interface are treated as row-dependent
// and served through the per-request path. The audit across the registry:
//
//   - fp32 / fp16: exact or elementwise rounding — independent.
//   - uniform: static scales or per-row dynamic scales — independent;
//     per-tensor dynamic scales are not (and are rejected for serving).
//   - smoothquant / ant: calibrated static scales, elementwise — independent.
//   - llmint8: static column split + per-row activation scales — independent.
//   - msfp (row blocks) / mxfp4 / smx4: exponents shared along each row
//     only — independent; msfp:ol blocks span rows — dependent.
//   - tender: with row chunking disabled (the serving build) every row uses
//     chunk-0 metadata — independent; with chunking, metadata varies by row
//     position — dependent.
//   - olive: outlier-victim pairs couple adjacent rows — dependent.
type RowIndependent interface {
	// ApplyRowIndependent reports whether Apply is row-independent as
	// configured.
	ApplyRowIndependent() bool
}

// IsRowIndependent reports whether k declares row-independent Apply.
func IsRowIndependent(k SiteKernel) bool {
	ri, ok := k.(RowIndependent)
	return ok && ri.ApplyRowIndependent()
}

// GEMMKernelSetter is an optional SiteKernel capability: kernels that can
// route their dense float GEMM through a pluggable tensor.Kernel backend
// (tensor.KernelBlocked) implement it. SetGEMMKernel is called once after
// calibration, before any Apply, with nil meaning the bit-exact reference
// path; kernels without the interface always run the reference GEMM — that
// refusal is the audit surface, mirroring how RowIndependent lets a kernel
// opt out of fused decode. Integer GEMMs (tender:int) have one
// implementation and never take a backend.
//
// Contract for implementers: with a nil kernel Apply must be bit-identical
// to the pre-kernel behaviour; with tensor.KernelBlocked the float GEMMs
// may reorder accumulation and are gated by tolerance + the quality
// harness.
type GEMMKernelSetter interface {
	SetGEMMKernel(k tensor.Kernel)
}

// SetGEMMKernel routes k's GEMM through kern when the kernel supports it,
// reporting whether it was applied. A nil kern always "succeeds" (the
// reference path needs no support).
func SetGEMMKernel(k SiteKernel, kern tensor.Kernel) bool {
	if kern == nil {
		return true
	}
	s, ok := k.(GEMMKernelSetter)
	if ok {
		s.SetGEMMKernel(kern)
	}
	return ok
}

// Scheme builds calibrated SiteKernels.
type Scheme interface {
	// Name identifies the scheme in experiment tables.
	Name() string
	// NewSite calibrates a kernel for one matmul site. xs holds
	// calibration samples of the left (activation) operand; ws of the
	// right operand — a single fixed matrix for weight matmuls, per-sample
	// tensors for activation-activation matmuls.
	NewSite(xs, ws []*tensor.Matrix, bits int) SiteKernel
}

// MatMul runs both phases in one call: pack w, then apply. This is the
// path for activation-activation sites (both operands change per call)
// and the reference the compile-once path must match bit for bit.
func MatMul(k SiteKernel, x, w *tensor.Matrix) *tensor.Matrix {
	return k.Apply(x, k.PrepareWeights(w))
}

// MatMulFunc adapts a plain matmul function to SiteKernel: PrepareWeights
// is the identity (no precomputable weight state) and Apply invokes the
// function. It keeps stateless kernels and activation-activation sites on
// the same interface.
type MatMulFunc func(x, w *tensor.Matrix) *tensor.Matrix

// PrepareWeights implements SiteKernel; the matrix itself is the pack.
func (f MatMulFunc) PrepareWeights(w *tensor.Matrix) PackedWeights { return w }

// Apply implements SiteKernel.
func (f MatMulFunc) Apply(x *tensor.Matrix, packed PackedWeights) *tensor.Matrix {
	return f(x, packed.(*tensor.Matrix))
}

// ApplyRowIndependent implements RowIndependent. Adapted functions must be
// plain row-wise matmuls (the FP32 reference is tensor.MatMul, whose
// per-row accumulation never looks at other rows); wrap row-coupled
// kernels as full SiteKernels instead.
func (f MatMulFunc) ApplyRowIndependent() bool { return true }

// FP32 is the unquantized reference.
type FP32 struct{}

// Name implements Scheme.
func (FP32) Name() string { return "FP32" }

// NewSite implements Scheme; the GEMM is exact.
func (FP32) NewSite(_, _ []*tensor.Matrix, _ int) SiteKernel {
	return MatMulFunc(func(x, w *tensor.Matrix) *tensor.Matrix { return tensor.MatMul(x, w) })
}

// FP16 is the paper's baseline: operands and result rounded through IEEE
// half precision.
type FP16 struct{}

// Name implements Scheme.
func (FP16) Name() string { return "FP16" }

// NewSite implements Scheme.
func (FP16) NewSite(_, _ []*tensor.Matrix, _ int) SiteKernel { return &fp16Site{} }

type fp16Site struct {
	gemm tensor.Kernel
}

// PrepareWeights implements SiteKernel: the weight matrix is rounded to
// half precision once.
func (*fp16Site) PrepareWeights(w *tensor.Matrix) PackedWeights {
	wr := w.Clone()
	tensor.F16RoundInPlace(wr)
	return wr
}

// Apply implements SiteKernel.
func (s *fp16Site) Apply(x *tensor.Matrix, packed PackedWeights) *tensor.Matrix {
	xr := x.Clone()
	tensor.F16RoundInPlace(xr)
	out := tensor.GEMM(s.gemm, xr, packed.(*tensor.Matrix))
	tensor.F16RoundInPlace(out)
	return out
}

// SetGEMMKernel implements GEMMKernelSetter.
func (s *fp16Site) SetGEMMKernel(k tensor.Kernel) { s.gemm = k }

// ApplyRowIndependent implements RowIndependent: half-precision rounding is
// elementwise.
func (*fp16Site) ApplyRowIndependent() bool { return true }

// Uniform is plain static uniform symmetric quantization at a fixed
// granularity for activations (weights are always per-column), the
// Table I sweep.
type Uniform struct {
	ActGran quant.Granularity
	// Dynamic recomputes activation scales per tensor at runtime instead
	// of using calibrated static scales.
	Dynamic bool
}

// Name implements Scheme.
func (u Uniform) Name() string { return "uniform/" + u.ActGran.String() }

type uniformSite struct {
	bits   int
	gran   quant.Granularity
	scales []float64 // calibrated activation scales (nil if dynamic)
	gemm   tensor.Kernel
}

// NewSite implements Scheme. Static scales come from the union of
// calibration samples.
func (u Uniform) NewSite(xs, _ []*tensor.Matrix, bits int) SiteKernel {
	s := &uniformSite{bits: bits, gran: u.ActGran}
	if !u.Dynamic && len(xs) > 0 {
		s.scales = calibratedScales(xs, u.ActGran, bits)
	}
	return s
}

// calibratedScales derives static activation scale factors from samples.
func calibratedScales(xs []*tensor.Matrix, gran quant.Granularity, bits int) []float64 {
	switch gran {
	case quant.PerTensor:
		var mx float64
		for _, x := range xs {
			if a := x.AbsMax(); a > mx {
				mx = a
			}
		}
		return []float64{quant.Scale(mx, bits)}
	case quant.PerColumn:
		cols := xs[0].Cols
		mx := make([]float64, cols)
		for _, x := range xs {
			for c, v := range x.AbsMaxPerCol() {
				if v > mx[c] {
					mx[c] = v
				}
			}
		}
		out := make([]float64, cols)
		for c, v := range mx {
			out[c] = quant.Scale(v, bits)
		}
		return out
	default:
		// Per-row scales are inherently per-token and therefore dynamic.
		return nil
	}
}

// PrepareWeights implements SiteKernel: per-column weight fake
// quantization runs once.
func (s *uniformSite) PrepareWeights(w *tensor.Matrix) PackedWeights {
	return quant.FakeQuant(w, quant.Config{Bits: s.bits, Gran: quant.PerColumn})
}

// Apply implements SiteKernel.
func (s *uniformSite) Apply(x *tensor.Matrix, packed PackedWeights) *tensor.Matrix {
	var xq *tensor.Matrix
	switch {
	case s.scales == nil:
		xq = quant.FakeQuant(x, quant.Config{Bits: s.bits, Gran: s.gran})
	case s.gran == quant.PerTensor:
		xq = fakeQuantWithScales(x, []float64{s.scales[0]}, s.bits, quant.PerTensor)
	default:
		xq = fakeQuantWithScales(x, s.scales, s.bits, quant.PerColumn)
	}
	return tensor.GEMM(s.gemm, xq, packed.(*tensor.Matrix))
}

// SetGEMMKernel implements GEMMKernelSetter.
func (s *uniformSite) SetGEMMKernel(k tensor.Kernel) { s.gemm = k }

// ApplyRowIndependent implements RowIndependent: calibrated static scales
// and dynamic per-row scales both quantize a row from that row alone; a
// dynamic per-tensor or per-column scale is computed over the whole call
// tensor and is therefore row-coupled.
func (s *uniformSite) ApplyRowIndependent() bool {
	return s.scales != nil || s.gran == quant.PerRow
}

// fakeQuantWithScales applies quantize-dequantize with fixed static scales.
func fakeQuantWithScales(x *tensor.Matrix, scales []float64, bits int, gran quant.Granularity) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		orow := out.Row(r)
		for c, v := range row {
			s := scales[0]
			if gran == quant.PerColumn {
				s = scales[c]
			}
			orow[c] = float64(quant.QuantizeValue(v, s, bits)) * s
		}
	}
	return out
}
