package model

import (
	"fmt"
	"math"

	"tender/internal/tensor"
)

// This file keeps the full-sequence transformer block as an independent
// oracle: every production path runs pass, and the identity tests hold
// pass to this second implementation, bit for bit.

// embed returns the token plus positional embeddings of tokens, the input
// rows of the oracle's first block.
func (m *Model) embed(tokens []int) *tensor.Matrix {
	n := len(tokens)
	if n == 0 {
		panic("model: empty token sequence")
	}
	if n > m.Cfg.MaxSeq {
		panic(fmt.Sprintf("model: sequence length %d exceeds max %d", n, m.Cfg.MaxSeq))
	}
	d := m.Cfg.DModel
	x := tensor.New(n, d)
	for i, t := range tokens {
		if t < 0 || t >= m.Cfg.Vocab {
			panic(fmt.Sprintf("model: token %d out of vocab", t))
		}
		copy(x.Row(i), m.Embed.Row(t))
		row := x.Row(i)
		pos := m.Pos.Row(i)
		for c := range row {
			row[c] += pos[c]
		}
	}
	return x
}

// oracleHidden runs every oracle block over tokens and returns the rows
// after the final LayerNorm; export_test.go unembeds or classifies them.
func (m *Model) oracleHidden(tokens []int, eng Engine) *tensor.Matrix {
	x := m.embed(tokens)
	for l := range m.Layers {
		x = m.block(l, x, eng)
	}
	tensor.LayerNormRows(x, m.LNFGain, m.LNFBias)
	return x
}

// block runs one Transformer block (pre-LN residual structure).
func (m *Model) block(l int, x *tensor.Matrix, eng Engine) *tensor.Matrix {
	lay := &m.Layers[l]
	n := x.Rows
	d := m.Cfg.DModel
	heads := m.Cfg.Heads
	dh := m.Cfg.HeadDim()

	// --- Attention sub-layer ---
	h := x.Clone()
	tensor.LayerNormRows(h, lay.LN1Gain, lay.LN1Bias) // outliers appear here
	xq := eng.MatMul(Site{l, KindQ, -1}, h, lay.WQ)
	xk := eng.MatMul(Site{l, KindK, -1}, h, lay.WK)
	xv := eng.MatMul(Site{l, KindV, -1}, h, lay.WV)

	attnOut := tensor.New(n, d)
	invSqrt := 1 / math.Sqrt(float64(dh))
	for hd := 0; hd < heads; hd++ {
		lo, hi := hd*dh, (hd+1)*dh
		qh := xq.SubColsRange(lo, hi)
		kh := xk.SubColsRange(lo, hi)
		vh := xv.SubColsRange(lo, hi)
		score := eng.MatMul(Site{l, KindScore, hd}, qh, kh.Transpose())
		score.Scale(invSqrt)
		if m.Cfg.Arch == Decoder {
			tensor.CausalMaskInPlace(score)
		}
		tensor.SoftmaxRows(score)
		av := eng.MatMul(Site{l, KindValue, hd}, score, vh)
		for r := 0; r < n; r++ {
			copy(attnOut.Row(r)[lo:hi], av.Row(r))
		}
	}
	xo := eng.MatMul(Site{l, KindOut, -1}, attnOut, lay.WO)
	x = tensor.Add(x, xo)

	// --- Feed-forward sub-layer ---
	h = x.Clone()
	tensor.LayerNormRows(h, lay.LN2Gain, lay.LN2Bias)
	f := eng.MatMul(Site{l, KindFC1, -1}, h, lay.WFC1)
	if m.Cfg.UseGELU {
		tensor.GELU(f)
	} else {
		tensor.ReLU(f)
	}
	f = eng.MatMul(Site{l, KindFC2, -1}, f, lay.WFC2)
	return tensor.Add(x, f)
}
