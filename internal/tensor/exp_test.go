package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// softmaxRowsScalar is SoftmaxRows as it was before the four-lane
// kernels: the reference the kernels must match bit for bit.
func softmaxRowsScalar(m *Matrix) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float32
		for i, v := range row {
			e := float32(math.Exp(float64(v - mx)))
			row[i] = e
			sum += e
		}
		inv := 1 / sum
		for i := range row {
			row[i] *= inv
		}
	}
}

// specialFloats are the values every elementwise kernel must pass through
// exactly as the scalar code does.
func specialFloats() []float32 {
	nan := math.Float32frombits(0x7fc00000)
	return []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		nan, math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001), // quiet, negative, signalling
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest denormals
		math.Float32frombits(0x00800000), math.Float32frombits(0x80800000), // smallest normals
		math.MaxFloat32, -math.MaxFloat32, -1e9, 1e9,
	}
}

// around returns the 2^17+1 float32s within 2^16 ulps of x.
func around(x float32) []float32 {
	const ulps = 1 << 16
	out := make([]float32, 0, 2*ulps+1)
	lo := x
	for i := 0; i < ulps; i++ {
		lo = math.Nextafter32(lo, float32(math.Inf(-1)))
	}
	for v, i := lo, 0; i <= 2*ulps; i++ {
		out = append(out, v)
		v = math.Nextafter32(v, float32(math.Inf(1)))
	}
	return out
}

// geluInputAt returns the float32 nearest the x at which GELU's tanh
// argument C0·(x + C1·x³) equals u; that argument rises with x.
func geluInputAt(u float64) float32 {
	arg := func(x float64) float64 { return geluC0 * (x + geluC1*x*x*x) }
	lo, hi := -100.0, 100.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if arg(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return float32(lo)
}

// elementwiseInputs are the inputs the GELU and exp tests share: normal
// and wide draws, random bit patterns (every class of float32), and the
// special values.
func elementwiseInputs(rng *rand.Rand) []float32 {
	var in []float32
	for i := 0; i < 1<<15; i++ {
		in = append(in,
			float32(rng.NormFloat64()*3),
			float32(rng.NormFloat64()*200),
			math.Float32frombits(rng.Uint32()))
	}
	return append(in, specialFloats()...)
}

// checkGELU runs in through GELU on a one-row matrix over a copy whose
// first element sits at the given float offset (so the kernel also reads
// unaligned operands) and compares every element with geluScalar.
func checkGELU(t *testing.T, name string, in []float32, offset int) {
	t.Helper()
	buf := make([]float32, offset+len(in))
	copy(buf[offset:], in)
	GELU(FromSlice(1, len(in), buf[offset:]))
	for i, x := range in {
		if got, want := buf[offset+i], geluScalar(x); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s: GELU(%v [%#08x]) = %#08x, scalar %#08x", name, x, math.Float32bits(x),
				math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// TestGELUMatchesScalar checks GELU against geluScalar bit for bit on
// random and special inputs, and on every float32 within 2^16 ulps of
// each point where math.tanh changes branch: |u| = 0.625, |u| = MAXLOG/2
// and u = 0.
func TestGELUMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	checkGELU(t, "random", elementwiseInputs(rng), 0)
	checkGELU(t, "unaligned", elementwiseInputs(rng), 1)
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	for _, u := range []float64{0.625, -0.625, halfMaxLog, -halfMaxLog, 0} {
		checkGELU(t, fmt.Sprintf("tanh branch u=%v", u), around(geluInputAt(u)), 0)
	}
	for n := 1; n <= 9; n++ {
		checkGELU(t, fmt.Sprintf("length %d", n), elementwiseInputs(rng)[:n], 1)
	}
}

// expBands are float32 arguments v − shift around every point where
// math.Exp's amd64 code changes what it returns: its overflow test, the
// exponent reaching 1024, the exponent at which the result goes
// denormal, the end of the denormal band; and where the float32 result
// overflows, goes denormal and underflows.
var expBands = []float32{
	7.09782712893384e+02, 1023.5 * math.Ln2, -1022.5 * math.Ln2, -1075.5 * math.Ln2,
	88.72284, -103.97208, -87.33655,
}

// sameSum reports whether two results derived from a float32 sum agree
// bit for bit, or are both NaN. Which of two NaNs an add returns follows
// the operand order the compiler picks for the scalar loop, so a sum over
// several NaN payloads is pinned only up to NaN; everything else is
// compared bit for bit.
func sameSum(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// expShiftSumScalar is the exponential loop SoftmaxRows and the decode
// step's attention ran before the four-lane kernels.
func expShiftSumScalar(x []float32, shift float32) float32 {
	var sum float32
	for i, v := range x {
		e := float32(math.Exp(float64(v - shift)))
		x[i] = e
		sum += e
	}
	return sum
}

// checkExpShift runs in through ExpShiftSum at the given shift over a
// copy at the given float offset and compares every element, and the sum,
// with the scalar loop.
func checkExpShift(t *testing.T, name string, in []float32, shift float32, offset int) {
	t.Helper()
	buf := make([]float32, offset+len(in))
	copy(buf[offset:], in)
	sum := ExpShiftSum(buf[offset:], shift)
	want := append([]float32(nil), in...)
	wantSum := expShiftSumScalar(want, shift)
	for i, v := range in {
		if got := buf[offset+i]; math.Float32bits(got) != math.Float32bits(want[i]) {
			t.Fatalf("%s: exp(%v − %v) = %#08x, scalar %#08x", name, v, shift,
				math.Float32bits(got), math.Float32bits(want[i]))
		}
	}
	if !sameSum(sum, wantSum) {
		t.Fatalf("%s: sum %#08x, scalar %#08x", name, math.Float32bits(sum), math.Float32bits(wantSum))
	}
}

// TestExpShiftSumMatchesScalar checks ExpShiftSum against the scalar loop
// bit for bit on random and special inputs at zero and nonzero shifts,
// and on every float32 within 2^16 ulps of each of math.Exp's branch
// points.
func TestExpShiftSumMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, shift := range []float32{0, 3.5, -2, 1e9, float32(math.Inf(1)), float32(math.NaN())} {
		checkExpShift(t, fmt.Sprintf("random shift %v", shift), elementwiseInputs(rng), shift, 0)
	}
	checkExpShift(t, "unaligned", elementwiseInputs(rng), 0.25, 1)
	for _, b := range expBands {
		checkExpShift(t, fmt.Sprintf("band %v", b), around(b), 0, 0)
	}
	for n := 1; n <= 9; n++ {
		checkExpShift(t, fmt.Sprintf("length %d", n), elementwiseInputs(rng)[:n], 1, 1)
	}
}

// TestSoftmaxRowsMatchesScalar checks SoftmaxRows against the loop it
// replaced, bit for bit: rows of every length from 1 to 9 (so the kernels'
// four-lane tails run), attention rows masked with −1e9 (half of every
// causal row in a generate prefill), rows holding special values, and an
// operand that starts one float past an aligned address.
func TestSoftmaxRowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	specials := specialFloats()
	for cols := 1; cols <= 9; cols++ {
		for _, kind := range []string{"normal", "masked", "special"} {
			rows := 16
			buf := make([]float32, 1+rows*cols)
			m := FromSlice(rows, cols, buf[1:])
			for i := range m.Data {
				m.Data[i] = float32(rng.NormFloat64() * 4)
				switch {
				case kind == "masked" && i%cols > (i/cols)%cols:
					m.Data[i] = -1e9
				case kind == "special" && rng.Intn(3) == 0:
					m.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
			want := m.Clone()
			softmaxRowsScalar(want)
			SoftmaxRows(m)
			for i := range want.Data {
				if !sameSum(m.Data[i], want.Data[i]) {
					t.Fatalf("%s rows of %d: element %d = %#08x, scalar %#08x", kind, cols, i,
						math.Float32bits(m.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
	}
	// Attention-shaped: 48-token rows, a quarter masked.
	m := NewRand(288, 48, 3, rng)
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = -1e9
		}
	}
	want := m.Clone()
	softmaxRowsScalar(want)
	SoftmaxRows(m)
	sameBits(t, "attention 288x48", m, want)
}

// BenchmarkGELU runs GELU over one 48-token, 768-wide FFN activation.
func BenchmarkGELU(b *testing.B) {
	m := NewRand(48, 768, 2, rand.New(rand.NewSource(1)))
	src := m.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(m.Data, src.Data)
		GELU(m)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(m.Data)), "ns/elem")
}

// BenchmarkSoftmaxRows runs SoftmaxRows over 288 attention rows of 48
// scores (six heads of a 48-token batch).
func BenchmarkSoftmaxRows(b *testing.B) {
	m := NewRand(288, 48, 3, rand.New(rand.NewSource(1)))
	src := m.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(m.Data, src.Data)
		SoftmaxRows(m)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(m.Data)), "ns/elem")
}
