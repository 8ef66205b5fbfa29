package tensor

import "fmt"

// RowBuffer is an append-only row store: a matrix that grows downward as
// rows arrive. It is the storage substrate for per-request KV caches in
// incremental decoding — keys and values for past positions are appended
// once per step and then read through an aliasing View.
//
// The buffer reallocates geometrically, so appending n rows one at a time
// costs O(n) amortized copies. A View taken before an append may alias the
// old backing array; always take a fresh View after appending.
type RowBuffer struct {
	cols int
	rows int
	data []float64
}

// NewRowBuffer returns an empty buffer for cols-wide rows with capacity
// for capRows rows preallocated (capRows may be 0).
func NewRowBuffer(cols, capRows int) *RowBuffer {
	if cols <= 0 || capRows < 0 {
		panic(fmt.Sprintf("tensor: NewRowBuffer(%d, %d)", cols, capRows))
	}
	return &RowBuffer{cols: cols, data: make([]float64, 0, cols*capRows)}
}

// Rows returns the number of rows appended so far.
func (b *RowBuffer) Rows() int { return b.rows }

// Cols returns the row width.
func (b *RowBuffer) Cols() int { return b.cols }

// AppendRows appends every row of m to the buffer. m must have the
// buffer's column count.
func (b *RowBuffer) AppendRows(m *Matrix) {
	if m.Cols != b.cols {
		panic(fmt.Sprintf("tensor: RowBuffer append %d cols to %d-col buffer", m.Cols, b.cols))
	}
	b.data = append(b.data, m.Data...)
	b.rows += m.Rows
}

// View returns the accumulated rows as a Matrix aliasing the buffer's
// storage. The view stays valid until the next AppendRows.
func (b *RowBuffer) View() *Matrix {
	return &Matrix{Rows: b.rows, Cols: b.cols, Data: b.data}
}

// ViewInto fills a caller-owned header with the accumulated rows, aliasing
// the buffer's storage like View but without allocating. The view stays
// valid until the next AppendRows.
func (b *RowBuffer) ViewInto(m *Matrix) {
	m.Rows, m.Cols, m.Data = b.rows, b.cols, b.data
}

// AppendRow appends a single row (length Cols) to the buffer.
func (b *RowBuffer) AppendRow(row []float64) {
	if len(row) != b.cols {
		panic(fmt.Sprintf("tensor: RowBuffer append %d-wide row to %d-col buffer", len(row), b.cols))
	}
	b.data = append(b.data, row...)
	b.rows++
}

// Row returns row r as a slice aliasing the buffer's storage.
func (b *RowBuffer) Row(r int) []float64 {
	return b.data[r*b.cols : (r+1)*b.cols]
}

// Span returns rows [r, Rows) as a row-major slice aliasing the buffer's
// storage plus the run length: a contiguous buffer is one span. It gives
// RowBuffer the same page-iteration surface as PagedRows.
func (b *RowBuffer) Span(r int) ([]float64, int) {
	return b.data[r*b.cols : b.rows*b.cols], b.rows - r
}

// Release empties the buffer and drops its storage for the garbage
// collector — the contiguous counterpart of PagedRows.Release.
func (b *RowBuffer) Release() {
	b.data = nil
	b.rows = 0
}

// Reset empties the buffer, keeping its capacity.
func (b *RowBuffer) Reset() {
	b.data = b.data[:0]
	b.rows = 0
}
