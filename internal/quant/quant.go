// Package quant implements the uniform symmetric integer quantization
// substrate from §II-C of the Tender paper: scale computation, rounding,
// per-tensor / per-row / per-column granularities, integer storage with
// int32 accumulation, and "fake quantization" (quantize-dequantize) used for
// model-quality experiments exactly as the paper's PyTorch implementation
// does.
package quant

import (
	"fmt"
	"math"

	"tender/internal/tensor"
)

// Granularity selects how elements share a scale factor (§II-C).
type Granularity int

const (
	// PerTensor shares one scale factor across the whole tensor.
	PerTensor Granularity = iota
	// PerRow shares a scale factor per row (per-token for activations).
	PerRow
	// PerColumn shares a scale factor per column (per input feature /
	// channel). This is the accuracy-optimal but hardware-hostile
	// granularity the paper's Table I motivates.
	PerColumn
)

// String returns the conventional name of the granularity.
func (g Granularity) String() string {
	switch g {
	case PerTensor:
		return "per-tensor"
	case PerRow:
		return "per-row"
	case PerColumn:
		return "per-column"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// QMax returns the maximum quantized magnitude for a b-bit symmetric
// integer: 2^(b-1) - 1 (127 for INT8, 7 for INT4).
func QMax(bits int) int {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
	return 1<<(bits-1) - 1
}

// Scale returns the symmetric scale factor s = absmax / qmax for the given
// bit width. A zero absmax yields scale 1 so that quantization maps zero
// tensors to zero without dividing by zero.
func Scale(absmax float64, bits int) float64 {
	if absmax == 0 {
		return 1
	}
	return absmax / float64(QMax(bits))
}

// QuantizeValue rounds x/scale to the nearest integer and clamps it to the
// b-bit symmetric range.
func QuantizeValue(x, scale float64, bits int) int8 {
	q := math.Round(x / scale)
	lim := float64(QMax(bits))
	if q > lim {
		q = lim
	} else if q < -lim {
		q = -lim
	}
	return int8(q)
}

// Config describes a uniform quantizer.
type Config struct {
	Bits int
	Gran Granularity
}

// Quantized is an integer matrix plus the scale metadata needed to
// dequantize it. Values are stored as int8 regardless of bit width; INT4
// values occupy [-7, 7].
type Quantized struct {
	Rows, Cols int
	Bits       int
	Gran       Granularity
	Data       []int8
	// Scales holds 1 (per-tensor), Rows (per-row) or Cols (per-column)
	// scale factors.
	Scales []float64
}

// Quantize converts m to integers under cfg.
func Quantize(m *tensor.Matrix, cfg Config) *Quantized {
	q := &Quantized{
		Rows: m.Rows, Cols: m.Cols,
		Bits: cfg.Bits, Gran: cfg.Gran,
		Data: make([]int8, m.Rows*m.Cols),
	}
	switch cfg.Gran {
	case PerTensor:
		q.Scales = []float64{Scale(m.AbsMax(), cfg.Bits)}
		s := q.Scales[0]
		for i, v := range m.Data {
			q.Data[i] = QuantizeValue(v, s, cfg.Bits)
		}
	case PerRow:
		q.Scales = make([]float64, m.Rows)
		for r := 0; r < m.Rows; r++ {
			row := m.Row(r)
			var mx float64
			for _, v := range row {
				if a := math.Abs(v); a > mx {
					mx = a
				}
			}
			s := Scale(mx, cfg.Bits)
			q.Scales[r] = s
			for c, v := range row {
				q.Data[r*m.Cols+c] = QuantizeValue(v, s, cfg.Bits)
			}
		}
	case PerColumn:
		q.Scales = make([]float64, m.Cols)
		for c, mx := range m.AbsMaxPerCol() {
			q.Scales[c] = Scale(mx, cfg.Bits)
		}
		for r := 0; r < m.Rows; r++ {
			row := m.Row(r)
			for c, v := range row {
				q.Data[r*m.Cols+c] = QuantizeValue(v, q.Scales[c], cfg.Bits)
			}
		}
	default:
		panic("quant: unknown granularity")
	}
	return q
}

// Dequantize restores the floating-point approximation of q.
func (q *Quantized) Dequantize() *tensor.Matrix {
	m := tensor.New(q.Rows, q.Cols)
	switch q.Gran {
	case PerTensor:
		s := q.Scales[0]
		for i, v := range q.Data {
			m.Data[i] = float64(v) * s
		}
	case PerRow:
		for r := 0; r < q.Rows; r++ {
			s := q.Scales[r]
			for c := 0; c < q.Cols; c++ {
				m.Data[r*q.Cols+c] = float64(q.Data[r*q.Cols+c]) * s
			}
		}
	case PerColumn:
		for r := 0; r < q.Rows; r++ {
			for c := 0; c < q.Cols; c++ {
				m.Data[r*q.Cols+c] = float64(q.Data[r*q.Cols+c]) * q.Scales[c]
			}
		}
	}
	return m
}

// FakeQuant returns Dequantize(Quantize(m, cfg)): the floating-point matrix
// carrying exactly the quantization error of cfg. This mirrors the
// simulated-quantization evaluation used by PTQ papers.
func FakeQuant(m *tensor.Matrix, cfg Config) *tensor.Matrix {
	return Quantize(m, cfg).Dequantize()
}

// QuantError returns the MSE introduced by quantizing m under cfg.
func QuantError(m *tensor.Matrix, cfg Config) float64 {
	return tensor.MSE(m, FakeQuant(m, cfg))
}

// MatMulIntDequant performs an integer GEMM between a (activations,
// per-tensor or per-row scales) and w (weights, per-tensor or per-column
// scales) and dequantizes the int32 accumulators into floats. It panics on
// granularity combinations that cannot be folded outside the reduction
// (e.g. per-column activations), which is precisely the hardware
// impracticability the paper describes.
func MatMulIntDequant(a, w *Quantized) *tensor.Matrix {
	if a.Cols != w.Rows {
		panic("quant: MatMulIntDequant inner dimension mismatch")
	}
	if a.Gran == PerColumn {
		panic("quant: per-column activations require scaling inside the reduction; use explicit decomposition")
	}
	if w.Gran == PerRow {
		panic("quant: per-row weight scales cannot be folded outside the reduction")
	}
	acc := tensor.MatMulInt(a.Rows, a.Cols, a.Data, w.Cols, w.Data)
	out := tensor.New(a.Rows, w.Cols)
	for r := 0; r < a.Rows; r++ {
		sa := a.Scales[0]
		if a.Gran == PerRow {
			sa = a.Scales[r]
		}
		for c := 0; c < w.Cols; c++ {
			sw := w.Scales[0]
			if w.Gran == PerColumn {
				sw = w.Scales[c]
			}
			out.Data[r*w.Cols+c] = float64(acc[r*w.Cols+c]) * sa * sw
		}
	}
	return out
}
