package model

import (
	"tender/internal/quant"
	"tender/internal/schemes"
	"tender/internal/tensor"
)

// Recorder is an Engine that computes exactly while recording operand
// samples per site, used for static PTQ calibration (§V-A).
type Recorder struct {
	X map[Site][]*tensor.Matrix
	W map[Site][]*tensor.Matrix
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		X: make(map[Site][]*tensor.Matrix),
		W: make(map[Site][]*tensor.Matrix),
	}
}

// MatMul implements Engine. A weight site's right operand is a model
// parameter, the same matrix at every call, so it is recorded by reference
// instead of copied once per calibration stream; activation operands are
// copied.
func (r *Recorder) MatMul(site Site, x, w *tensor.Matrix) *tensor.Matrix {
	if site.Kind.IsActAct() {
		w = w.Clone()
	}
	r.X[site] = append(r.X[site], x.Clone())
	r.W[site] = append(r.W[site], w)
	return tensor.MatMul(x, w)
}

// Record runs every stream through m on rec, one whole-sequence pass each
// (causal in a decoder, bidirectional in an encoder), so rec holds one
// operand sample per stream at every site. Nothing is unembedded or
// classified: calibration reads only the block's sites.
func (m *Model) Record(rec *Recorder, streams [][]int) {
	for _, toks := range streams {
		scratch.Put(m.prefill(rec, toks))
	}
}

// SchemeEngine routes every matmul site through a calibrated SiteKernel of
// one quantization scheme.
//
// The engine is compiled in two phases (the paper's calibration-time /
// runtime split, §III-B): Calibrate derives each site's activation
// metadata via Scheme.NewSite, then — for weight matmul sites, whose right
// operand is a fixed model parameter — runs the kernel's PrepareWeights
// once against the recorded weights. The per-call hot path (MatMul)
// quantizes only activations against the immutable pack, so concurrent
// serving sessions share an engine with no synchronization.
// Activation-activation sites, whose right operand changes per call, run
// both kernel phases per call.
//
// Activation-activation sites follow the paper's evaluation protocol:
//
//   - With QuantActAct = false (the "fair comparison" mode of Tables II
//     and III) they execute in floating point.
//   - With QuantActAct = true, the score site (XQ × XK^T) is quantized by
//     the scheme per head, and the value site (XS × XV) uses the generic
//     path — per-tensor static scales for the softmax probabilities
//     (range [0, 1], no channel outliers) and per-column quantization for
//     XV — for every scheme, since probabilities carry no channel
//     structure for outlier-aware methods to exploit.
type SchemeEngine struct {
	Scheme      schemes.Scheme
	Bits        int
	QuantActAct bool
	sites       map[Site]compiledSite
	valueScales map[Site]float64
}

// compiledSite pairs a calibrated kernel with its compile-once weight
// pack; packed is nil for activation-activation sites, which prepare per
// call.
type compiledSite struct {
	kernel schemes.SiteKernel
	packed schemes.PackedWeights
}

// Calibrate builds the engine from recorded calibration tensors. Weight
// matmul sites are compiled against the recorded weights, which for model
// forwards are the fixed layer parameters — the values the site will see
// at every inference call.
func Calibrate(s schemes.Scheme, bits int, quantActAct bool, rec *Recorder) *SchemeEngine {
	e := &SchemeEngine{
		Scheme: s, Bits: bits, QuantActAct: quantActAct,
		sites:       make(map[Site]compiledSite),
		valueScales: make(map[Site]float64),
	}
	for site, xs := range rec.X {
		if site.Kind == KindValue {
			var mx float64
			for _, x := range xs {
				if a := x.AbsMax(); a > mx {
					mx = a
				}
			}
			e.valueScales[site] = quant.Scale(mx, bits)
			continue
		}
		cs := compiledSite{kernel: s.NewSite(xs, rec.W[site], bits)}
		if !site.Kind.IsActAct() {
			cs.packed = cs.kernel.PrepareWeights(rec.W[site][0])
		}
		e.sites[site] = cs
	}
	return e
}

// CalibrateModel records calibration forwards of m on the token streams
// and returns the calibrated engine.
func CalibrateModel(m *Model, s schemes.Scheme, bits int, quantActAct bool, streams [][]int) *SchemeEngine {
	rec := NewRecorder()
	m.Record(rec, streams)
	return Calibrate(s, bits, quantActAct, rec)
}

// MatMul implements Engine.
func (e *SchemeEngine) MatMul(site Site, x, w *tensor.Matrix) *tensor.Matrix {
	if site.Kind.IsActAct() && !e.QuantActAct {
		return tensor.MatMul(x, w)
	}
	if site.Kind == KindValue {
		return e.valueMatMul(site, x, w)
	}
	cs, ok := e.sites[site]
	if !ok {
		// Site unseen during calibration (e.g. deeper sequence): exact.
		return tensor.MatMul(x, w)
	}
	if cs.packed != nil {
		// Weight matmul site: the compile-once pack stands in for w.
		return cs.kernel.Apply(x, cs.packed)
	}
	return schemes.MatMul(cs.kernel, x, w)
}

// RowIndependentMatMul implements RowIndependentEngine by consulting the
// site's calibrated kernel (schemes.RowIndependent). Sites that fall back
// to the exact GEMM — act-act sites when QuantActAct is off, sites unseen
// during calibration — are row-independent by construction. Quantized
// act-act sites are not: their right operand is the session's cached keys
// or values, quantized per call (the value path's per-column V scale spans
// every cached position), so a row's result depends on where its chunk
// ends.
func (e *SchemeEngine) RowIndependentMatMul(site Site) bool {
	if site.Kind.IsActAct() {
		return !e.QuantActAct
	}
	cs, ok := e.sites[site]
	if !ok {
		return true
	}
	return schemes.IsRowIndependent(cs.kernel)
}

// ExactActAct reports whether attention matmuls run the exact float GEMM
// (they do unless the engine quantizes activation-activation sites).
func (e *SchemeEngine) ExactActAct() bool { return !e.QuantActAct }

// SetGEMMKernel routes the engine's weight-matmul sites through the GEMM
// backend kern (schemes.GEMMKernelSetter), returning how many sites accepted
// it and how many weight sites exist — the audit surface: site kernels
// without the capability keep the bit-exact reference GEMM, exactly as
// row-dependent kernels opt out of fused steps. Activation-activation and
// value sites are never routed: their per-call quantize-and-multiply paths
// define the bit-identity contract between fused and per-request serving.
// Call once after Calibrate, before any MatMul.
func (e *SchemeEngine) SetGEMMKernel(kern tensor.Kernel) (set, total int) {
	for site, cs := range e.sites {
		if site.Kind.IsActAct() {
			continue
		}
		total++
		if schemes.SetGEMMKernel(cs.kernel, kern) {
			set++
		}
	}
	return set, total
}

// valueMatMul is the generic act-act path for the XS × XV site.
func (e *SchemeEngine) valueMatMul(site Site, x, w *tensor.Matrix) *tensor.Matrix {
	s, ok := e.valueScales[site]
	if !ok || s == 0 {
		s = quant.Scale(1, e.Bits)
	}
	xq := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		xq.Data[i] = float64(quant.QuantizeValue(v, s, e.Bits)) * s
	}
	wq := quant.FakeQuant(w, quant.Config{Bits: e.Bits, Gran: quant.PerColumn})
	return tensor.MatMul(xq, wq)
}
