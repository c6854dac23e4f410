package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// parallelThreshold is the number of result elements below which matmul
// runs single-threaded; spawning goroutines for tiny products costs more
// than it saves.
const parallelThreshold = 64 * 64

// MatMul computes dst = a × b. dst must be a.Rows×b.Cols and must not
// alias a or b. Large products are split across GOMAXPROCS goroutines by
// row blocks.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if a.Rows*b.Cols < parallelThreshold {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulRows(dst, a, b, lo, hi) })
}

// matMulRows computes rows [lo,hi) of dst = a×b: the AVX2 panels take
// every whole 16-column strip where the CPU has them, and matMulCols the
// columns left over (all of them on other builds).
func matMulRows(dst, a, b *Matrix, lo, hi int) {
	matMulCols(dst, a, b, lo, hi, matMulPanels(dst, a, b, lo, hi))
}

// matMulCols computes columns [c0, b.Cols) of rows [lo,hi) of dst = a×b
// using an ikj loop order that streams b rows sequentially
// (cache-friendly without an explicit transpose). Every output is a sum
// over ascending k, starting from +0, of the rounded products: the
// explicit conversion keeps a compiler from fusing the multiply and add,
// and zeros in a are not skipped, so 0×Inf is NaN here as in the panels.
func matMulCols(dst, a, b *Matrix, lo, hi, c0 int) {
	if c0 == b.Cols {
		return
	}
	for i := lo; i < hi; i++ {
		out := dst.Row(i)[c0:]
		for x := range out {
			out[x] = 0
		}
		for k, av := range a.Row(i) {
			for j, bv := range b.Row(k)[c0:][:len(out)] {
				out[j] += float32(av * bv)
			}
		}
	}
}

// parallelRows splits [0, rows) into GOMAXPROCS contiguous blocks and
// runs body on each concurrently.
func parallelRows(rows int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		body(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	//sti:ctxok bounded compute fan-out: the workers finish when the op does; there is nothing external to cancel
	wg.Wait()
}

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: Add shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a − b elementwise. dst may alias a or b.
func Sub(dst, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: Sub shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Scale multiplies every element of m by s in place.
func Scale(m *Matrix, s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AXPY computes dst += s·a elementwise.
func AXPY(dst *Matrix, s float32, a *Matrix) {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: AXPY shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] += float32(s * a.Data[i])
	}
}

// AddBias adds the bias vector to every row of m in place.
func AddBias(m *Matrix, bias []float32) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: AddBias %d bias for %d cols", len(bias), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, b := range bias {
			row[c] += b
		}
	}
}

// SoftmaxRows applies a numerically stable softmax to each row of m in
// place.
func SoftmaxRows(m *Matrix) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		inv := 1 / ExpShiftSum(row, mx)
		for i := range row {
			row[i] *= inv
		}
	}
}

// ExpShiftSum sets every x[i] to float32(math.Exp(float64(x[i] - shift)))
// and returns their float32 sum, added in index order from +0: the
// numerator and denominator of a softmax row shifted by its maximum. The
// shift is a float32 subtraction, as in the softmax it serves. Where the
// four-lane kernels run they compute the prefix of x whose length is a
// multiple of 4, bit for bit as this loop would.
func ExpShiftSum(x []float32, shift float32) float32 {
	n, sum := expShiftKernel(x, shift)
	for i := n; i < len(x); i++ {
		e := float32(math.Exp(float64(x[i] - shift)))
		x[i] = e
		sum += e
	}
	return sum
}

// LayerNormEps is the variance epsilon used by LayerNormRows, matching
// BERT's default.
const LayerNormEps = 1e-5

// LayerNormRows normalizes each row of m to zero mean and unit variance,
// then applies the elementwise affine transform gamma/beta, in place.
// If mean/invStd are non-nil they receive the per-row statistics (length
// m.Rows), which the backprop trainer needs.
func LayerNormRows(m *Matrix, gamma, beta []float32, mean, invStd []float32) {
	if len(gamma) != m.Cols || len(beta) != m.Cols {
		panic("tensor: LayerNormRows gamma/beta length")
	}
	n := float32(m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var mu float32
		for _, v := range row {
			mu += v
		}
		mu /= n
		var va float32
		for _, v := range row {
			d := v - mu
			va += float32(d * d)
		}
		va /= n
		is := 1 / float32(math.Sqrt(float64(va)+LayerNormEps))
		if mean != nil {
			mean[r] = mu
		}
		if invStd != nil {
			invStd[r] = is
		}
		for i, v := range row {
			row[i] = float32((v-mu)*is*gamma[i]) + beta[i]
		}
	}
}

// GELU applies the Gaussian error linear unit to every element of m in
// place, using the tanh approximation BERT uses.
func GELU(m *Matrix) {
	for i := geluKernel(m.Data); i < len(m.Data); i++ {
		m.Data[i] = geluScalar(m.Data[i])
	}
}

const (
	geluC0 = 0.7978845608028654 // sqrt(2/pi)
	geluC1 = 0.044715
)

func geluScalar(x float32) float32 {
	x64 := float64(x)
	return float32(0.5 * x64 * (1 + math.Tanh(geluC0*(x64+float64(geluC1*x64*x64*x64)))))
}

// GELUGrad returns d gelu(x) / dx for a scalar input. Each product that
// feeds an add is rounded on its own, as in geluScalar, so no build fuses
// it.
func GELUGrad(x float32) float32 {
	x64 := float64(x)
	u := geluC0 * (x64 + float64(geluC1*x64*x64*x64))
	t := math.Tanh(u)
	du := geluC0 * (1 + float64(3*geluC1*x64*x64))
	return float32(float64(0.5*(1+t)) + float64(0.5*x64*(1-float64(t*t))*du))
}

// Tanh applies tanh to every element of m in place.
func Tanh(m *Matrix) {
	for i, v := range m.Data {
		m.Data[i] = float32(math.Tanh(float64(v)))
	}
}
