// Package tensor provides the dense float64 matrix substrate used by the
// Tender reproduction: construction, element access, blocked and parallel
// matrix multiplication, elementwise transforms, reductions, and IEEE
// half-precision rounding for the FP16 baseline.
//
// The package is deliberately small and allocation-conscious: a Matrix is a
// row-major []float64 plus dimensions, and every operation documents whether
// it allocates or works in place. MatMul's per-row accumulation order
// (k ascending, zero-skip, j ascending) is part of the contract — the
// serving layers replicate it so that batching and storage layout never
// change a result bit.
//
// Two allocation-management facilities back the serving hot paths:
//
//   - Arena, a size-classed sync.Pool of matrix slabs that lets fused
//     decode reuse every intermediate (zero heap allocations per token).
//   - BlockPool / Page / PagedRows, the KV-cache store: fixed-size
//     refcounted float64 pages drawn from one shared, optionally bounded
//     pool.
//     PagedRows can mount shared read-only prefix pages produced by
//     another store (MountShared/SharePages) with copy-on-write on a
//     partially filled last page — the mechanism prompt-prefix KV reuse
//     is built on.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. Use New or FromSlice to build
// matrices with data.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values in row-major order: element (r, c) is
	// Data[r*Cols+c].
	Data []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major, length rows*cols) in a Matrix. The slice
// is used directly, not copied.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Shape returns (rows, cols).
func (m *Matrix) Shape() (int, int) { return m.Rows, m.Cols }

// String renders small matrices for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			s += "; "
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(r, c))
		}
	}
	return s + "]"
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			out.Data[c*m.Rows+r] = v
		}
	}
	return out
}

// SubCols returns a new matrix containing the columns cols of m, in order.
// It is used to extract channel groups.
func (m *Matrix) SubCols(cols []int) *Matrix {
	out := New(m.Rows, len(cols))
	for r := 0; r < m.Rows; r++ {
		src := m.Row(r)
		dst := out.Row(r)
		for i, c := range cols {
			dst[i] = src[c]
		}
	}
	return out
}

// SubRows returns a new matrix with rows [lo, hi) of m. The data is copied.
func (m *Matrix) SubRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SubRows [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	out := New(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// RowView returns a matrix aliasing rows [lo, hi) of m without copying.
// Mutations through the view are visible in m.
func (m *Matrix) RowView(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: RowView [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// SubColsRange returns a new matrix with columns [lo, hi) of m.
func (m *Matrix) SubColsRange(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SubColsRange [%d,%d) of %d cols", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r)[lo:hi])
	}
	return out
}

// SetSubCols writes src into the columns cols of m (inverse of SubCols).
func (m *Matrix) SetSubCols(cols []int, src *Matrix) {
	if src.Rows != m.Rows || src.Cols != len(cols) {
		panic("tensor: SetSubCols shape mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		dst := m.Row(r)
		s := src.Row(r)
		for i, c := range cols {
			dst[c] = s[i]
		}
	}
}

// Add returns a + b (new matrix).
func Add(a, b *Matrix) *Matrix {
	checkSameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// AddInPlace sets a += b.
func AddInPlace(a, b *Matrix) {
	checkSameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Sub returns a - b (new matrix).
func Sub(a, b *Matrix) *Matrix {
	checkSameShape("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// Scale multiplies every element of m by k in place and returns m.
func (m *Matrix) Scale(k float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= k
	}
	return m
}

// AddRowVector adds the length-Cols vector v to every row of m in place.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVector length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += v[c]
		}
	}
}

// MulColVector multiplies column c of m by v[c] for every column, in place
// (i.e. m = m * diag(v)).
func (m *Matrix) MulColVector(v []float64) {
	if len(v) != m.Cols {
		panic("tensor: MulColVector length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] *= v[c]
		}
	}
}

// MulRowVector multiplies row r of m by v[r] for every row, in place
// (i.e. m = diag(v) * m).
func (m *Matrix) MulRowVector(v []float64) {
	if len(v) != m.Rows {
		panic("tensor: MulRowVector length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] *= v[r]
		}
	}
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MSE returns the mean squared error between a and b.
func MSE(a, b *Matrix) float64 {
	checkSameShape("MSE", a, b)
	if len(a.Data) == 0 {
		return 0
	}
	var sum float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		sum += d * d
	}
	return sum / float64(len(a.Data))
}

// MaxAbsDiff returns the largest absolute elementwise difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	checkSameShape("MaxAbsDiff", a, b)
	var m float64
	for i, v := range a.Data {
		d := math.Abs(v - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// AbsMax returns the largest absolute value in m (0 for empty matrices).
func (m *Matrix) AbsMax() float64 {
	var mx float64
	for _, v := range m.Data {
		a := math.Abs(v)
		if a > mx {
			mx = a
		}
	}
	return mx
}

// AbsMaxPerCol returns, for each column, the largest absolute value.
func (m *Matrix) AbsMaxPerCol() []float64 {
	out := make([]float64, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			a := math.Abs(v)
			if a > out[c] {
				out[c] = a
			}
		}
	}
	return out
}

// AbsMaxPerRow returns, for each row, the largest absolute value.
func (m *Matrix) AbsMaxPerRow() []float64 {
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var mx float64
		for _, v := range m.Row(r) {
			a := math.Abs(v)
			if a > mx {
				mx = a
			}
		}
		out[r] = mx
	}
	return out
}

// MinMaxPerCol returns per-column minima and maxima. For an empty matrix the
// results are zero-length; for zero rows every column reports (0, 0).
func (m *Matrix) MinMaxPerCol() (mins, maxs []float64) {
	mins = make([]float64, m.Cols)
	maxs = make([]float64, m.Cols)
	if m.Rows == 0 {
		return mins, maxs
	}
	copy(mins, m.Row(0))
	copy(maxs, m.Row(0))
	for r := 1; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			if v < mins[c] {
				mins[c] = v
			}
			if v > maxs[c] {
				maxs[c] = v
			}
		}
	}
	return mins, maxs
}

// MeanAbs returns the mean absolute value of m's elements.
func (m *Matrix) MeanAbs() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	var sum float64
	for _, v := range m.Data {
		sum += math.Abs(v)
	}
	return sum / float64(len(m.Data))
}
