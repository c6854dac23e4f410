//go:build amd64 && !purego

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// around64 returns the float64s within n ulps of x.
func around64(x float64, n int) []float64 {
	out := make([]float64, 0, 2*n+1)
	lo := x
	for i := 0; i < n; i++ {
		lo = math.Nextafter(lo, math.Inf(-1))
	}
	for v, i := lo, 0; i <= 2*n; i++ {
		out = append(out, v)
		v = math.Nextafter(v, math.Inf(1))
	}
	return out
}

// lanes64 runs in through a four-lane kernel, padding the last group
// with copies of its first value, and returns the results.
func lanes64(in []float64, kernel func(*[4]float64)) []float64 {
	out := make([]float64, len(in))
	for i := 0; i < len(in); i += 4 {
		var g [4]float64
		for j := range g {
			g[j] = in[min(i+j, len(in)-1)]
		}
		kernel(&g)
		copy(out[i:], g[:])
	}
	return out
}

// inputs64 returns random float64s at several scales and random bit
// patterns, plus the special values.
func inputs64(rng *rand.Rand, scales ...float64) []float64 {
	var in []float64
	for i := 0; i < 1<<14; i++ {
		for _, s := range scales {
			in = append(in, rng.NormFloat64()*s)
		}
		in = append(in, math.Float64frombits(rng.Uint64()))
	}
	return append(in, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64)
}

// TestExpLanesMatchMathExp compares the kernels' exp lanes with math.Exp
// bit for bit in float64, before float32 rounding can hide a difference:
// random arguments, special values and every float64 within 2^12 ulps of
// the overflow test and the exponent reaching 1024. Where math.Exp's
// result is below 2^-1022 (its denormal band and underflow) the lanes
// return +0, which is what float32 rounding makes of math.Exp there too.
func TestExpLanesMatchMathExp(t *testing.T) {
	if !useExpKernels {
		t.Skip("four-lane kernels off on this host")
	}
	rng := rand.New(rand.NewSource(33))
	in := inputs64(rng, 1, 30, 300)
	for _, b := range []float64{7.09782712893384e+02, 1023.5 * math.Ln2, -1022.5 * math.Ln2, -1075.5 * math.Ln2} {
		in = append(in, around64(b, 1<<12)...)
	}
	got := lanes64(in, exp4)
	for i, x := range in {
		want := math.Exp(x)
		if math.Float64bits(got[i]) == 0 && want >= 0 && want < 0x1p-1022 {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("exp(%v [%#016x]) = %#016x, math.Exp %#016x", x, math.Float64bits(x),
				math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}

// TestTanhLanesMatchMathTanh compares the kernels' tanh lanes with
// math.Tanh bit for bit in float64: random arguments, special values and
// every float64 within 2^12 ulps of each branch point (|u| = 0.625,
// |u| = MAXLOG/2, u = 0).
func TestTanhLanesMatchMathTanh(t *testing.T) {
	if !useExpKernels {
		t.Skip("four-lane kernels off on this host")
	}
	rng := rand.New(rand.NewSource(34))
	in := inputs64(rng, 0.3, 1, 30)
	for _, b := range []float64{0.625, -0.625, 0.5 * 8.8029691931113054295988e+01, -0.5 * 8.8029691931113054295988e+01, 0} {
		in = append(in, around64(b, 1<<12)...)
	}
	got := lanes64(in, tanh4)
	for i, u := range in {
		if want := math.Tanh(u); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("tanh(%v [%#016x]) = %#016x, math.Tanh %#016x", u, math.Float64bits(u),
				math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}
