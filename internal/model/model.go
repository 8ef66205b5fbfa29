package model

import (
	"fmt"
	"math"

	"tender/internal/tensor"
)

// Layer holds one Transformer block's parameters (Fig. 1 of the paper).
type Layer struct {
	LN1Gain, LN1Bias []float64
	WQ, WK, WV, WO   *tensor.Matrix
	LN2Gain, LN2Bias []float64
	WFC1, WFC2       *tensor.Matrix
}

// Model is a transformer with deterministic pseudo-random parameters.
type Model struct {
	Cfg Config
	// Embed is the vocab×dmodel token embedding.
	Embed *tensor.Matrix
	// Unembed is the dmodel×vocab output projection. It is untied from
	// Embed so that the logits depend on the transformer's computed
	// features rather than echoing the input embedding.
	Unembed *tensor.Matrix
	// Pos is the maxseq×dmodel positional embedding.
	Pos    *tensor.Matrix
	Layers []Layer
	// LNFGain/LNFBias are the final LayerNorm parameters.
	LNFGain, LNFBias []float64
	// Cls is the NumClasses×dmodel classifier head (encoder models only).
	Cls *tensor.Matrix
	// OutlierSet lists the channel indices whose LayerNorm gains are
	// boosted — the fixed outlier channels of §II-B.
	OutlierSet []int
}

// New builds the model deterministically from cfg.Seed.
func New(cfg Config) *Model {
	cfg.Validate()
	rng := tensor.NewRNG(cfg.Seed)
	d := cfg.DModel
	m := &Model{
		Cfg:     cfg,
		Embed:   tensor.RandNormal(rng, cfg.Vocab, d, 1),
		Unembed: tensor.RandNormal(rng, d, cfg.Vocab, 1/math.Sqrt(float64(d))),
		Pos:     tensor.RandNormal(rng, cfg.MaxSeq, d, 0.3),
	}
	// Fixed outlier channels shared by every layer, mirroring the
	// observation that LLM outliers stay in the same channels across
	// layers (§II-B, Fig. 3).
	m.OutlierSet = pickChannels(rng, d, cfg.OutlierChannels)
	// Residual branches carry full weight so the final representation is
	// dominated by computed features, not the input embedding.
	const resScale = 1.0
	for l := 0; l < cfg.Layers; l++ {
		ln1g, ln1b := outlierAffine(rng, d, m.OutlierSet, cfg.OutlierGain)
		ln2g, ln2b := outlierAffine(rng, d, m.OutlierSet, cfg.OutlierGain*0.8)
		lay := Layer{
			LN1Gain: ln1g,
			LN1Bias: ln1b,
			// Query/key projections are scaled down so attention scores
			// land in a soft-softmax regime despite the outlier channels;
			// trained LLMs achieve the same through learned geometry, a
			// random model must do it through initialization.
			WQ:      tensor.RandNormal(rng, d, d, 0.25/math.Sqrt(float64(d))),
			WK:      tensor.RandNormal(rng, d, d, 0.25/math.Sqrt(float64(d))),
			WV:      tensor.RandNormal(rng, d, d, 1/math.Sqrt(float64(d))),
			WO:      tensor.RandNormal(rng, d, d, resScale/math.Sqrt(float64(d))),
			LN2Gain: ln2g,
			LN2Bias: ln2b,
			WFC1:    tensor.RandNormal(rng, d, cfg.FFN, 1/math.Sqrt(float64(d))),
			WFC2:    tensor.RandNormal(rng, cfg.FFN, d, resScale/math.Sqrt(float64(cfg.FFN))),
		}
		// Trained LLM weights are small exactly where activations are
		// large (the observation SmoothQuant builds on): scale the weight
		// rows consuming each channel by the inverse LayerNorm gain so
		// every channel contributes comparably to the product. Without
		// this, outlier channels would dominate the output variance and
		// the quantization fidelity of normal channels — which is what
		// separates the schemes — would be invisible downstream.
		scaleRowsByInverseGain(lay.WQ, ln1g)
		scaleRowsByInverseGain(lay.WK, ln1g)
		scaleRowsByInverseGain(lay.WV, ln1g)
		scaleRowsByInverseGain(lay.WFC1, ln2g)
		// Real weight matrices have heterogeneous output-column norms
		// (Fig. 2 right shows structure in the weights too). Per-column
		// weight quantization — what Tender pairs with — absorbs this
		// spread exactly; per-tensor weight quantization (SmoothQuant,
		// ANT) pays for it, which is what breaks them at INT4.
		for _, w := range []*tensor.Matrix{lay.WQ, lay.WK, lay.WV, lay.WO, lay.WFC1, lay.WFC2} {
			jitterColNorms(rng, w, 0.7)
		}
		m.Layers = append(m.Layers, lay)
	}
	m.LNFGain = ones(d)
	m.LNFBias = make([]float64, d)
	if cfg.Arch == Encoder {
		m.Cls = tensor.RandNormal(rng, d, cfg.NumClasses, 1/math.Sqrt(float64(d)))
	}
	return m
}

func pickChannels(rng *tensor.RNG, d, count int) []int {
	perm := rng.Perm(d)
	out := make([]int, count)
	copy(out, perm[:count])
	return out
}

// outlierAffine returns LayerNorm gain/bias vectors with the outlier
// channels boosted — the model-intrinsic cause of activation outliers
// (§II-B). Three properties of real LLM outlier channels (Fig. 2) are
// reproduced: (1) they sit in fixed channels, (2) they span multiple
// magnitude tiers (gain, gain/4, gain/16 cycling over the outlier set) —
// the multi-scale structure that motivates more than two channel groups
// (Fig. 9) — and (3) they are one-sided (a large bias offset), which is
// what the per-channel bias subtraction of Tender exploits.
func outlierAffine(rng *tensor.RNG, d int, outliers []int, gain float64) (g, b []float64) {
	g = make([]float64, d)
	b = make([]float64, d)
	for i := range g {
		g[i] = 1 + 0.1*rng.Norm()
		// Normal channels also carry nonzero means (LLM activations are
		// not zero-centered), which rewards zero-point/bias handling.
		b[i] = rng.Norm()
	}
	for i, c := range outliers {
		tier := gain / math.Pow(4, float64(i%3))
		g[c] = tier * (0.8 + 0.4*rng.Float64())
		// Strongly one-sided: the channel's offset is ~3x its spread,
		// like the real outlier channels in Fig. 2 (e.g. mean ≈ -60,
		// std ≈ 5). Symmetric quantizers spend their levels covering the
		// offset; Tender's bias subtraction reclaims them.
		sign := 1.0
		if rng.Float64() < 0.5 {
			sign = -1
		}
		b[c] = sign * 3 * g[c]
	}
	return g, b
}

// jitterColNorms multiplies each weight column by exp(sigma·z), z ~ N(0,1).
func jitterColNorms(rng *tensor.RNG, w *tensor.Matrix, sigma float64) {
	for c := 0; c < w.Cols; c++ {
		k := math.Exp(sigma * rng.Norm())
		for r := 0; r < w.Rows; r++ {
			w.Data[r*w.Cols+c] *= k
		}
	}
}

// scaleRowsByInverseGain divides weight row c by max(1, |gain[c]|).
func scaleRowsByInverseGain(w *tensor.Matrix, gain []float64) {
	for c := 0; c < w.Rows; c++ {
		g := math.Abs(gain[c])
		if g <= 1 {
			continue
		}
		row := w.Row(c)
		for j := range row {
			row[j] /= g
		}
	}
}

func ones(d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = 1
	}
	return v
}

// SiteKind identifies a matmul site class within a Transformer block.
type SiteKind int

const (
	// KindQ, KindK, KindV are the query/key/value projections.
	KindQ SiteKind = iota
	KindK
	KindV
	// KindScore is the XQ × XK^T activation-activation matmul.
	KindScore
	// KindValue is the XS × XV activation-activation matmul.
	KindValue
	// KindOut is the output projection.
	KindOut
	// KindFC1 and KindFC2 are the feed-forward layers.
	KindFC1
	KindFC2
)

// String names the site kind.
func (k SiteKind) String() string {
	names := [...]string{"Q", "K", "V", "score", "value", "out", "fc1", "fc2"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("SiteKind(%d)", int(k))
}

// IsActAct reports whether the site multiplies two activations.
func (k SiteKind) IsActAct() bool { return k == KindScore || k == KindValue }

// Site identifies one matmul instance: a kind within a layer, and for
// per-head attention matmuls the head index (Head = -1 for linear sites).
type Site struct {
	Layer int
	Kind  SiteKind
	Head  int
}

// String renders a site for diagnostics.
func (s Site) String() string {
	if s.Head >= 0 {
		return fmt.Sprintf("L%d/%v/h%d", s.Layer, s.Kind, s.Head)
	}
	return fmt.Sprintf("L%d/%v", s.Layer, s.Kind)
}

// Sites enumerates every matmul site of the model in execution order.
func (m *Model) Sites() []Site {
	var out []Site
	for l := 0; l < m.Cfg.Layers; l++ {
		out = append(out,
			Site{l, KindQ, -1}, Site{l, KindK, -1}, Site{l, KindV, -1})
		for h := 0; h < m.Cfg.Heads; h++ {
			out = append(out, Site{l, KindScore, h}, Site{l, KindValue, h})
		}
		out = append(out, Site{l, KindOut, -1}, Site{l, KindFC1, -1}, Site{l, KindFC2, -1})
	}
	return out
}

// Engine executes the model's matmuls; implementations inject
// quantization error (SchemeEngine), record operands (Recorder), or run
// exactly (Exact).
type Engine interface {
	MatMul(site Site, x, w *tensor.Matrix) *tensor.Matrix
}

// EngineInto is an optional Engine extension for allocation-free hot
// paths: MatMulInto computes the site's product into a caller-owned
// matrix, bit-identical to MatMul. The incremental block uses it to run
// steady-state decode without heap allocations.
type EngineInto interface {
	Engine
	MatMulInto(site Site, x, w, out *tensor.Matrix)
}

// RowIndependentEngine is an optional Engine extension reporting whether a
// site's MatMul treats every activation row independently — running the
// site once over rows stacked from several sessions, or over a prefill cut
// into chunks, is bit-identical, row for row, to running it on each row
// alone. The row-independence audit (Model.AuditRows) requires it of every
// site, attention included; engines that do not implement the interface
// fail the audit and are not served.
type RowIndependentEngine interface {
	Engine
	RowIndependentMatMul(site Site) bool
}

// exactActAct is an optional Engine extension reporting that activation-
// activation sites (attention score and value) execute the exact float
// GEMM. The incremental block then computes attention with direct
// dot-product loops over the KV cache instead of materializing per-head
// operand copies — bit-identical because the loops replicate
// tensor.MatMul's per-row accumulation order exactly.
type exactActAct interface {
	ExactActAct() bool
}

// Exact is the engine with no quantization. Kernel optionally routes
// weight-matmul GEMMs through a pluggable backend (tensor.KernelBlocked);
// activation-activation sites always run the reference GEMM, whose
// accumulation order the block's direct attention loops reproduce, and a
// nil Kernel is the bit-exact reference everywhere.
type Exact struct {
	Kernel tensor.Kernel
}

// MatMul implements Engine.
func (e Exact) MatMul(site Site, x, w *tensor.Matrix) *tensor.Matrix {
	if e.Kernel == nil || site.Kind.IsActAct() {
		return tensor.MatMul(x, w)
	}
	return tensor.GEMM(e.Kernel, x, w)
}

// MatMulInto implements EngineInto.
func (e Exact) MatMulInto(site Site, x, w, out *tensor.Matrix) {
	if e.Kernel == nil || site.Kind.IsActAct() {
		tensor.MatMulInto(x, w, out)
		return
	}
	tensor.GEMMInto(e.Kernel, x, w, out)
}

// RowIndependentMatMul implements RowIndependentEngine: the exact GEMM
// accumulates each output row from its own input row only.
func (Exact) RowIndependentMatMul(Site) bool { return true }

// ExactActAct reports that attention matmuls run the exact float GEMM.
func (Exact) ExactActAct() bool { return true }

// Forward runs the transformer over tokens and returns the logits
// (len(tokens) × vocab): one whole-sequence pass on a throwaway session,
// the same block every KV-cached path runs. Matmuls are routed through
// eng; softmax, LayerNorm, activation functions and residual adds stay in
// floating point, matching the paper's VPU split (§IV-C). The unembedding
// stays in full precision, as in all the PTQ works the paper compares
// against.
func (m *Model) Forward(tokens []int, eng Engine) *tensor.Matrix {
	x := m.prefill(eng, tokens)
	logits := tensor.MatMul(x, m.Unembed)
	scratch.Put(x)
	return logits
}

// ClassifyLogits runs the encoder and returns the classifier logits from
// the first (CLS) position.
func (m *Model) ClassifyLogits(tokens []int, eng Engine) []float64 {
	if m.Cfg.Arch != Encoder {
		panic("model: ClassifyLogits requires an encoder model")
	}
	x := m.prefill(eng, tokens)
	cls := tensor.MatMul(x.RowView(0, 1), m.Cls)
	scratch.Put(x)
	return cls.Data
}

// prefill runs tokens as one segment on a throwaway session over a private
// pool — causal in a decoder, bidirectional in an encoder, whose sessions
// exist only here — and returns the hidden rows after the final LayerNorm,
// a scratch matrix the caller puts back.
func (m *Model) prefill(eng Engine, tokens []int) *tensor.Matrix {
	s := m.sessionOn(eng, m.privatePool(len(tokens)), len(tokens), nil)
	defer s.ReleaseKV()
	p := newPass(m, eng)
	return p.forward([]Segment{{s, tokens}})
}
