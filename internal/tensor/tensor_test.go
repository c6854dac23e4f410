package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapesAndAccess(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %v", m)
	}
	m.Set(2, 3, 7)
	if m.At(2, 3) != 7 {
		t.Fatalf("Set/At round trip failed: %v", m.At(2, 3))
	}
	if got := m.Row(2)[3]; got != 7 {
		t.Fatalf("Row aliasing broken: %v", got)
	}
}

func TestFromSliceNoCopy(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	m := FromSlice(2, 2, data)
	data[0] = 9
	if m.At(0, 0) != 9 {
		t.Fatal("FromSlice must alias the provided slice")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	dst := New(2, 2)
	MatMul(dst, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, dst.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewRand(5, 5, 1, rng)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	dst := New(5, 5)
	MatMul(dst, a, id)
	if !dst.Equal(a) {
		t.Fatal("A × I != A")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewRand(70, 80, 1, rng) // above parallelThreshold
	b := NewRand(80, 90, 1, rng)
	par := New(70, 90)
	MatMul(par, a, b)
	ser := New(70, 90)
	matMulRows(ser, a, b, 0, a.Rows)
	for i := range par.Data {
		if par.Data[i] != ser.Data[i] {
			t.Fatalf("parallel != serial at %d: %v vs %v", i, par.Data[i], ser.Data[i])
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dim mismatch")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		m := NewRand(r, c, 1, rng)
		return m.Transpose().Transpose().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColRowSliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewRand(6, 12, 1, rng)
	rebuilt := New(6, 12)
	for h := 0; h < 4; h++ {
		rebuilt.SetColSlice(h*3, m.ColSlice(h*3, (h+1)*3))
	}
	if !rebuilt.Equal(m) {
		t.Fatal("column slice/reassemble lost data")
	}
	rows := New(6, 12)
	rows.SetRowSlice(0, m.RowSlice(0, 2))
	rows.SetRowSlice(2, m.RowSlice(2, 6))
	if !rows.Equal(m) {
		t.Fatal("row slice/reassemble lost data")
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 1000, 1000, 1000})
	SoftmaxRows(m)
	for r := 0; r < 2; r++ {
		var sum float64
		for _, v := range m.Row(r) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += float64(v)
		}
		if !almostEqual(sum, 1, 1e-5) {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
	if !(m.At(0, 2) > m.At(0, 1) && m.At(0, 1) > m.At(0, 0)) {
		t.Fatal("softmax not monotone")
	}
	// Row of equal large values must not overflow to NaN.
	if math.IsNaN(float64(m.At(1, 0))) {
		t.Fatal("softmax overflow on large inputs")
	}
}

func TestSoftmaxRowsSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewRand(1+rng.Intn(5), 1+rng.Intn(9), 3, rng)
		SoftmaxRows(m)
		for r := 0; r < m.Rows; r++ {
			var sum float64
			for _, v := range m.Row(r) {
				sum += float64(v)
			}
			if !almostEqual(sum, 1, 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayerNormRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewRand(4, 16, 2, rng)
	gamma := make([]float32, 16)
	beta := make([]float32, 16)
	for i := range gamma {
		gamma[i] = 1
	}
	LayerNormRows(m, gamma, beta, nil, nil)
	for r := 0; r < m.Rows; r++ {
		var mu, va float64
		for _, v := range m.Row(r) {
			mu += float64(v)
		}
		mu /= 16
		for _, v := range m.Row(r) {
			va += (float64(v) - mu) * (float64(v) - mu)
		}
		va /= 16
		if !almostEqual(mu, 0, 1e-4) || !almostEqual(va, 1, 1e-2) {
			t.Fatalf("row %d: mean %v var %v", r, mu, va)
		}
	}
}

func TestLayerNormAffine(t *testing.T) {
	m := FromSlice(1, 2, []float32{-1, 1})
	gamma := []float32{2, 2}
	beta := []float32{5, 5}
	LayerNormRows(m, gamma, beta, nil, nil)
	// Normalized row is (-1, 1) (unit variance already), so affine gives 3 and 7.
	if !almostEqual(float64(m.At(0, 0)), 3, 1e-3) || !almostEqual(float64(m.At(0, 1)), 7, 1e-3) {
		t.Fatalf("affine layernorm = %v", m.Data)
	}
}

func TestGELUKnownValues(t *testing.T) {
	cases := map[float32]float64{0: 0, 1: 0.8412, -1: -0.1588, 3: 2.9964}
	for in, want := range cases {
		if got := float64(geluScalar(in)); !almostEqual(got, want, 1e-3) {
			t.Fatalf("gelu(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestGELUGradMatchesFiniteDifference(t *testing.T) {
	for _, x := range []float32{-2, -0.5, 0, 0.3, 1.7} {
		const h = 1e-3
		fd := (float64(geluScalar(x+h)) - float64(geluScalar(x-h))) / (2 * h)
		if got := float64(GELUGrad(x)); !almostEqual(got, fd, 1e-3) {
			t.Fatalf("GELUGrad(%v) = %v, finite difference %v", x, got, fd)
		}
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{4, 5, 6})
	dst := New(1, 3)
	Add(dst, a, b)
	if dst.Data[0] != 5 || dst.Data[2] != 9 {
		t.Fatalf("Add = %v", dst.Data)
	}
	Sub(dst, b, a)
	if dst.Data[0] != 3 || dst.Data[2] != 3 {
		t.Fatalf("Sub = %v", dst.Data)
	}
	Scale(dst, 2)
	if dst.Data[1] != 6 {
		t.Fatalf("Scale = %v", dst.Data)
	}
	AXPY(dst, -1, dst.Clone())
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatalf("AXPY self-cancel = %v", dst.Data)
		}
	}
}

func TestAddBias(t *testing.T) {
	m := New(2, 3)
	AddBias(m, []float32{1, 2, 3})
	if m.At(0, 0) != 1 || m.At(1, 2) != 3 {
		t.Fatalf("AddBias = %v", m.Data)
	}
}

func TestArgMaxRow(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 9, 2, -5, -1, -9})
	if m.ArgMaxRow(0) != 1 || m.ArgMaxRow(1) != 1 {
		t.Fatalf("ArgMaxRow = %d, %d", m.ArgMaxRow(0), m.ArgMaxRow(1))
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] == 99 {
		t.Fatal("Clone must copy storage")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A×B)×C ≈ A×(B×C) within float tolerance, on small random inputs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := NewRand(n, n, 0.5, rng)
		b := NewRand(n, n, 0.5, rng)
		c := NewRand(n, n, 0.5, rng)
		ab := New(n, n)
		MatMul(ab, a, b)
		abc1 := New(n, n)
		MatMul(abc1, ab, c)
		bc := New(n, n)
		MatMul(bc, b, c)
		abc2 := New(n, n)
		MatMul(abc2, a, bc)
		for i := range abc1.Data {
			if !almostEqual(float64(abc1.Data[i]), float64(abc2.Data[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := NewRand(128, 768, 0.02, rng)
	w := NewRand(768, 768, 0.02, rng)
	dst := New(128, 768)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, w)
	}
}
