package tensor

import (
	"math/rand"
	"testing"
)

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestSlicePanics(t *testing.T) {
	m := New(3, 4)
	expectPanic(t, "ColSlice hi>cols", func() { m.ColSlice(0, 5) })
	expectPanic(t, "ColSlice lo<0", func() { m.ColSlice(-1, 2) })
	expectPanic(t, "ColSlice lo>hi", func() { m.ColSlice(3, 2) })
	expectPanic(t, "RowSlice hi>rows", func() { m.RowSlice(0, 4) })
	expectPanic(t, "SetColSlice overflow", func() { m.SetColSlice(3, New(3, 2)) })
	expectPanic(t, "SetColSlice rows", func() { m.SetColSlice(0, New(2, 2)) })
	expectPanic(t, "SetRowSlice overflow", func() { m.SetRowSlice(2, New(2, 4)) })
	expectPanic(t, "New negative", func() { New(-1, 2) })
}

func TestOpShapePanics(t *testing.T) {
	a, b := New(2, 2), New(2, 3)
	expectPanic(t, "Add", func() { Add(New(2, 2), a, b) })
	expectPanic(t, "Sub", func() { Sub(New(2, 2), a, b) })
	expectPanic(t, "AXPY", func() { AXPY(a, 1, b) })
	expectPanic(t, "AddBias", func() { AddBias(a, []float32{1, 2, 3}) })
	expectPanic(t, "CopyFrom", func() { a.CopyFrom(b) })
	expectPanic(t, "LayerNorm gamma", func() { LayerNormRows(a, []float32{1}, []float32{0, 0}, nil, nil) })
	expectPanic(t, "MatMul dst", func() { MatMul(New(3, 3), a, New(2, 2)) })
}

func TestZeroAndMaxAbs(t *testing.T) {
	m := FromSlice(1, 4, []float32{-3, 1, 2, -0.5})
	if m.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left residue")
		}
	}
	if New(0, 0).MaxAbs() != 0 {
		t.Fatal("empty MaxAbs")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2)) {
		t.Fatal("different shapes reported equal")
	}
	a := FromSlice(1, 2, []float32{1, 2})
	b := FromSlice(1, 2, []float32{1, 3})
	if a.Equal(b) {
		t.Fatal("different data reported equal")
	}
}

func TestMatMulZeroRows(t *testing.T) {
	// Degenerate but legal shapes must not crash.
	dst := New(0, 3)
	MatMul(dst, New(0, 2), New(2, 3))
	if len(dst.Data) != 0 {
		t.Fatal("zero-row product broken")
	}
}

func TestLayerNormStatsOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewRand(3, 8, 2, rng)
	orig := m.Clone()
	mean := make([]float32, 3)
	inv := make([]float32, 3)
	gamma := make([]float32, 8)
	for i := range gamma {
		gamma[i] = 1
	}
	LayerNormRows(m, gamma, make([]float32, 8), mean, inv)
	for r := 0; r < 3; r++ {
		var mu float32
		for _, v := range orig.Row(r) {
			mu += v
		}
		mu /= 8
		if d := mean[r] - mu; d > 1e-5 || d < -1e-5 {
			t.Fatalf("row %d reported mean %v, want %v", r, mean[r], mu)
		}
		if inv[r] <= 0 {
			t.Fatalf("row %d invStd %v", r, inv[r])
		}
	}
}

func TestTransposeRectangular(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(0, 1) != 4 || tr.At(2, 0) != 3 {
		t.Fatalf("transpose wrong: %v", tr.Data)
	}
}
