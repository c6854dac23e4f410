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
// panel, column counts off the 16-column strip, and zeros in a. With
// k = 0 the product is all +0.
func TestMatMulPanelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{0, 1, 3, 4, 5, 33} {
		for _, k := range []int{0, 1, 17, 192} {
			for _, n := range []int{1, 2, 15, 16, 17, 48, 200} {
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
		}
	}
}

// TestMatMulUnalignedOperands runs the kernel over matrices that start one
// float into their backing arrays, so no operand is 32-byte aligned.
func TestMatMulUnalignedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, k, n = 9, 33, 40
	a := FromSlice(m, k, randWithZeros(1, m*k+1, rng).Data[1:])
	b := FromSlice(k, n, NewRand(1, k*n+1, 1, rng).Data[1:])
	got := FromSlice(m, n, make([]float32, m*n+1)[1:])
	garbage(got)
	matMulRows(got, a, b, 0, m)
	want := New(m, n)
	matMulCols(want, a, b, 0, m, 0)
	sameBits(t, "unaligned", got, want)
}

// TestMatMulZeroTimesInf checks that a zero in a meeting an Inf in b
// yields NaN in both the panel columns and the portable tail: neither path
// skips zeros.
func TestMatMulZeroTimesInf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, k, n = 5, 8, 18 // columns 16 and 17 are the portable tail
	a, b := NewRand(m, k, 1, rng), NewRand(k, n, 1, rng)
	for i := 0; i < m; i++ {
		a.Set(i, 3, 0)
	}
	b.Set(3, 2, float32(math.Inf(1)))
	b.Set(3, 17, float32(math.Inf(-1)))
	got, want := matMulBoth(a, b)
	sameBits(t, "0×Inf", got, want)
	for i := 0; i < m; i++ {
		for _, j := range []int{2, 17} {
			if v := got.At(i, j); !math.IsNaN(float64(v)) {
				t.Fatalf("row %d col %d = %v, want NaN", i, j, v)
			}
		}
	}
}

// BenchmarkMatMul times MatMul at the serving shapes of the bench-6x6
// model: a 48-row batch through the 192-wide projections and FFN1, and a
// one-row decode step through FFN1.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{
		{48, 192, 192}, {48, 192, 576}, {48, 192, 768}, {1, 192, 768},
	} {
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
