package schemes

import (
	"tender/internal/quant"
	"tender/internal/tender"
	"tender/internal/tensor"
)

// Tender adapts the core algorithm (internal/tender) to the Scheme
// interface used by the model substrate.
type Tender struct {
	// Groups, Alpha, RowChunk override the paper defaults when nonzero.
	Groups   int
	Alpha    int
	RowChunk int
	// NoRowChunk forces whole-tensor calibration (RowChunk = 0 means
	// "use default" so a separate flag is needed to disable chunking).
	NoRowChunk bool
	// UseClustering switches channel grouping to k-means (ablation).
	UseClustering bool
	// DisableBias skips bias subtraction (ablation).
	DisableBias bool
	// Integer runs the bit-exact implicit integer GEMM instead of the
	// fast fake-quant path. Results are identical; this path exists to
	// exercise the hardware execution model end-to-end.
	Integer bool
}

// Name implements Scheme.
func (t Tender) Name() string { return "Tender" }

func (t Tender) config(bits int) tender.Config {
	cfg := tender.DefaultConfig(bits)
	if t.Groups > 0 {
		cfg.Groups = t.Groups
	}
	if t.Alpha > 0 {
		cfg.Alpha = t.Alpha
	}
	if t.RowChunk > 0 {
		cfg.RowChunk = t.RowChunk
	}
	if t.NoRowChunk {
		cfg.RowChunk = 0
	}
	cfg.UseClustering = t.UseClustering
	cfg.DisableBias = t.DisableBias
	return cfg
}

type tenderSite struct {
	cal     *tender.Calibration
	bits    int
	integer bool
	gemm    tensor.Kernel
}

// tenderPacked is the compiled weight state: the per-column quantized
// codes (for the implicit integer GEMM) and their dequantized form.
// Both are write-once at PrepareWeights time and read-only after, so
// concurrent serving sessions share one pack with no locking — the role
// the pre-redesign mutex cache played.
type tenderPacked struct {
	wq *quant.Quantized
	wf *tensor.Matrix
}

// NewSite implements Scheme. Activation metadata is calibrated statically
// from xs; the right operand is per-column quantized in PrepareWeights.
func (t Tender) NewSite(xs, _ []*tensor.Matrix, bits int) SiteKernel {
	cfg := t.config(bits)
	return &tenderSite{
		cal:     tender.Calibrate(xs, cfg),
		bits:    bits,
		integer: t.Integer && !cfg.UseClustering,
	}
}

// PrepareWeights implements SiteKernel: per-column weight quantization
// runs once per site.
func (s *tenderSite) PrepareWeights(w *tensor.Matrix) PackedWeights {
	wq := tender.QuantizeWeights(w, s.bits)
	return &tenderPacked{wq: wq, wf: wq.Dequantize()}
}

// Apply implements SiteKernel: only the activation is quantized per call.
func (s *tenderSite) Apply(x *tensor.Matrix, packed PackedWeights) *tensor.Matrix {
	p := packed.(*tenderPacked)
	if s.integer {
		return s.cal.MatMulImplicit(x, p.wq, p.wf)
	}
	return tensor.GEMM(s.gemm, s.cal.FakeQuantActivation(x), p.wf)
}

// SetGEMMKernel implements GEMMKernelSetter: the fake-quant float path runs
// its dense GEMM on the backend (tolerance-gated). The integer path has one
// GEMM, MatMulImplicit, and ignores it; engine.Resolve rejects a float
// backend for tender:int.
func (s *tenderSite) SetGEMMKernel(k tensor.Kernel) { s.gemm = k }

// ApplyRowIndependent implements RowIndependent: with row chunking disabled
// (RowChunk = 0, the serving build) every row is quantized against the
// single chunk-0 metadata regardless of how many rows share the call, so
// stacked and per-row Apply agree bit for bit. With chunking enabled the
// metadata varies by row position within the call and fusing would shift
// rows between chunks.
func (s *tenderSite) ApplyRowIndependent() bool { return s.cal.Cfg.RowChunk == 0 }
