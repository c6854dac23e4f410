package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randWithZeros returns a rows×cols matrix whose entries are normal draws,
// about a fifth of them exactly zero.
func randWithZeros(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewRand(rows, cols, 1, rng)
	for i := range m.Data {
		if rng.Intn(5) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// garbage fills m with NaN so a kernel that skips an output shows up.
func garbage(m *Matrix) {
	for i := range m.Data {
		m.Data[i] = float32(math.NaN())
	}
}

// matMulBoth computes a×b through the panels plus the portable tail (the
// MatMul path) and through the portable loop alone.
func matMulBoth(a, b *Matrix) (got, want *Matrix) {
	got, want = New(a.Rows, b.Cols), New(a.Rows, b.Cols)
	garbage(got)
	garbage(want)
	matMulRows(got, a, b, 0, a.Rows)
	matMulCols(want, a, b, 0, a.Rows, 0)
	return got, want
}

func sameBits(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d (row %d col %d) = %v, portable loop %v",
				name, i, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulPanelsMatchPortable checks that the kernel MatMul runs equals
// the portable loop bit for bit over odd shapes: row counts off the 4-row
// panel, column counts off the 16-column strip and the 64-column block of
// the one-row panel (so a leftover row splits 1×64, 1×16, portable), and
// zeros in a. With k = 0 the product is all +0.
func TestMatMulPanelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(m, k, n int) {
		a, b := randWithZeros(m, k, rng), NewRand(k, n, 1, rng)
		got, want := matMulBoth(a, b)
		sameBits(t, fmt.Sprintf("%dx%dx%d", m, k, n), got, want)

		par := New(m, n)
		garbage(par)
		MatMul(par, a, b)
		sameBits(t, fmt.Sprintf("MatMul %dx%dx%d", m, k, n), par, want)
		if k == 0 {
			sameBits(t, fmt.Sprintf("MatMul %dx0x%d", m, n), par, New(m, n))
		}
	}
	for _, m := range []int{0, 1, 3, 4, 5, 33} {
		for _, k := range []int{0, 1, 17, 192} {
			for _, n := range []int{1, 2, 15, 16, 17, 48, 200} {
				check(m, k, n)
			}
		}
	}
	for _, m := range []int{1, 2, 3, 5} {
		for _, k := range []int{0, 1, 17, 192} {
			for _, n := range []int{63, 64, 65, 80, 127, 128, 192, 2048} {
				check(m, k, n)
			}
		}
	}
}

// TestMatMulUnalignedOperands runs the kernel over matrices that start one
// float into their backing arrays, so no operand is 32-byte aligned. The
// wide shape sends the leftover row through all three one-row paths.
func TestMatMulUnalignedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range []struct{ m, k, n int }{{9, 33, 40}, {9, 33, 150}} {
		m, k, n := s.m, s.k, s.n
		a := FromSlice(m, k, randWithZeros(1, m*k+1, rng).Data[1:])
		b := FromSlice(k, n, NewRand(1, k*n+1, 1, rng).Data[1:])
		got := FromSlice(m, n, make([]float32, m*n+1)[1:])
		garbage(got)
		matMulRows(got, a, b, 0, m)
		want := New(m, n)
		matMulCols(want, a, b, 0, m, 0)
		sameBits(t, fmt.Sprintf("unaligned %dx%dx%d", m, k, n), got, want)
	}
}

// TestMatMulZeroTimesInf checks that a zero in a meeting an Inf in b
// yields NaN in every path: the 4-row panel, the one-row 1×64 and 1×16
// panels, and the portable tail. None of them skips zeros.
func TestMatMulZeroTimesInf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Row 4 is left over from the 4-row panel, so it runs 1×64 on
	// columns [0, 64), 1×16 on [64, 80) and the portable loop on 80 and 81.
	const m, k, n = 5, 8, 82
	a, b := NewRand(m, k, 1, rng), NewRand(k, n, 1, rng)
	for i := 0; i < m; i++ {
		a.Set(i, 3, 0)
	}
	infCols := []int{2, 63, 70, 81}
	for x, j := range infCols {
		b.Set(3, j, float32(math.Inf(1-2*(x%2))))
	}
	got, want := matMulBoth(a, b)
	sameBits(t, "0×Inf", got, want)
	for i := 0; i < m; i++ {
		for _, j := range infCols {
			if v := got.At(i, j); !math.IsNaN(float64(v)) {
				t.Fatalf("row %d col %d = %v, want NaN", i, j, v)
			}
		}
	}
}

// withSpecials returns a rows×cols matrix of normal draws in which about a
// fifth of the entries are ±0 and about p of them each of +Inf, −Inf and
// NaN.
func withSpecials(rows, cols int, p float64, rng *rand.Rand) *Matrix {
	m := NewRand(rows, cols, 1, rng)
	specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for i := range m.Data {
		switch r := rng.Float64(); {
		case r < 0.1:
			m.Data[i] = 0
		case r < 0.2:
			m.Data[i] = float32(math.Copysign(0, -1))
		case r < 0.2+3*p:
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// matMulBT is the scalar a × bᵀ loop (dst is a.Rows×b.Rows) that the
// attention scores, the LM head and the trainer ran before they moved
// onto MatMul against a transposed copy: one accumulator per output,
// float32(a·b) summed over ascending k from +0.
func matMulBT(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k, av := range a.Row(i) {
				s += float32(av * b.Row(j)[k])
			}
			dst.Set(i, j, s)
		}
	}
}

// TestMatMulTransposedMatchesMatMulBT checks that MatMul against bᵀ
// computes the scalar matMulBT's bits (any NaN matches any NaN): both sum
// float32(a·b) over ascending k from +0, so a product may move between
// them. It covers classify's per-head QKᵀ (l×32 against l×32, l = 1–70)
// and the trainer's shapes: the head's 1×C against H×C, and L×H against
// FFN×H and L×FFN against H×FFN, at the Tiny and bench-6x6 widths.
func TestMatMulTransposedMatchesMatMulBT(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(m, k, n int) {
		// About three dot products in ten meet an Inf or a NaN.
		p := 0.05 / float64(max(k, 1))
		a, b := withSpecials(m, k, p, rng), withSpecials(n, k, p, rng)
		got, want := New(m, n), New(m, n)
		garbage(got)
		garbage(want)
		MatMul(got, a, b.Transpose())
		matMulBT(want, a, b)
		for i, w := range want.Data {
			g := got.Data[i]
			if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
				t.Fatalf("%dx%dx%d: element %d (row %d col %d) = %v, matMulBT %v",
					m, k, n, i, i/n, i%n, g, w)
			}
		}
	}
	for l := 1; l <= 70; l++ {
		check(l, 32, l)
	}
	for _, s := range []struct{ h, ffn, l int }{{48, 96, 32}, {192, 768, 64}} {
		check(1, 2, s.h)
		check(1, s.h, s.h)
		check(s.l, s.h, s.ffn)
		check(s.l, s.ffn, s.h)
	}
}

// BenchmarkMatMul times MatMul at the serving shapes of the bench-6x6
// model: a 48-row batch through the 192-wide projections and FFN1, decode
// steps of one and two rows through FFN1 and the 2048-word LM head, and
// one head's classify attention at l = 32, 48 and 64 (QKᵀ is l×32×l,
// the scores times V l×l×32).
func BenchmarkMatMul(b *testing.B) {
	type shape struct{ m, k, n int }
	shapes := []shape{
		{48, 192, 192}, {48, 192, 576}, {48, 192, 768}, {1, 192, 768},
		{2, 192, 768}, {1, 192, 2048},
	}
	for _, l := range []int{32, 48, 64} {
		shapes = append(shapes, shape{l, 32, l}, shape{l, l, 32})
	}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			x, w, dst := NewRand(s.m, s.k, 1, rng), NewRand(s.k, s.n, 0.02, rng), New(s.m, s.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(dst, x, w)
			}
			flops := 2 * float64(s.m*s.k*s.n) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
