// Package tensor provides the hand-rolled float32 linear-algebra kernels
// that every other part of the STI reproduction computes with.
//
// The paper runs on PyTorch's ATen kernels; this package is the
// substitute: an AVX2 assembly matmul on amd64, and portable Go loops that
// every build falls back to (all of them under -tags purego). The AVX2
// matmul is a set of row panels: 4×16 for each four rows, and for a row
// left over (a decode step's one to three rows) 1×64 blocks, then 1×16
// strips, with the portable loop on the last n mod 16 columns. Every build
// computes the same matmul bits: those kernels never fuse a multiply into
// an add, and every panel sums a column over ascending k from +0, so how a
// product splits across them does not change a bit. MatMul is the only
// product: a caller that needs a × bᵀ (the attention scores, the LM head,
// the trainer's backward pass) copies b transposed, so it runs on the
// panels too.
//
// GELU and the softmax exponentials (SoftmaxRows, ExpShiftSum) run four
// float64 lanes per YMM register on amd64. The lanes replay math.Exp's
// FMA branch and math.tanh operation for operation, so they change no
// bit; they run only where math.Exp is seen to take that branch, and the
// scalar loops everywhere else. Their bits are therefore pinned on amd64
// hosts with FMA; arm64 and non-FMA hosts round math.Exp and math.Tanh
// differently, and so compute other GELU and softmax bits. It implements
// exactly the operations a BERT-style transformer encoder needs — dense matmul
// (optionally parallel), bias/add/scale, row softmax, layer normalization,
// GELU and tanh — plus GELU's derivative for the backprop trainer in
// internal/train.
//
// A Matrix is a dense row-major float32 buffer. Matrices are plain
// values: methods that write results take an explicit destination so
// buffers can be reused by the pipeline's working buffer.
package tensor

import (
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major matrix of float32 values.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (length rows*cols) as a matrix without copying.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// NewRand returns a rows×cols matrix with entries drawn from a normal
// distribution with the given standard deviation, using rng. It is the
// initializer used for synthetic model weights.
func NewRand(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
	return m
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set writes v at row r, column c.
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom %dx%d from %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Equal reports whether m and n have identical shape and elements.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != n.Data[i] {
			return false
		}
	}
	return true
}

// String renders a short shape description (not the contents).
func (m *Matrix) String() string { return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols) }

// ColSlice copies columns [lo, hi) of m into a new matrix. It is how a
// vertical model slice (one attention head plus its FFN neurons) is
// extracted from a full weight matrix.
func (m *Matrix) ColSlice(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: ColSlice [%d,%d) of %d cols", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r)[lo:hi])
	}
	return out
}

// RowSlice copies rows [lo, hi) of m into a new matrix.
func (m *Matrix) RowSlice(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: RowSlice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	out := New(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// SetColSlice writes src into columns [lo, lo+src.Cols) of m.
func (m *Matrix) SetColSlice(lo int, src *Matrix) {
	if src.Rows != m.Rows || lo+src.Cols > m.Cols {
		panic("tensor: SetColSlice shape mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		copy(m.Row(r)[lo:lo+src.Cols], src.Row(r))
	}
}

// SetRowSlice writes src into rows [lo, lo+src.Rows) of m.
func (m *Matrix) SetRowSlice(lo int, src *Matrix) {
	if src.Cols != m.Cols || lo+src.Rows > m.Rows {
		panic("tensor: SetRowSlice shape mismatch")
	}
	copy(m.Data[lo*m.Cols:], src.Data)
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			t.Data[c*t.Cols+r] = v
		}
	}
	return t
}

// MaxAbs returns the largest absolute value in m (0 for empty matrices).
func (m *Matrix) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > mx {
			mx = a
		}
	}
	return mx
}

// ArgMaxRow returns the index of the maximum element in row r.
func (m *Matrix) ArgMaxRow(r int) int {
	row := m.Row(r)
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}
