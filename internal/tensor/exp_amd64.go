//go:build amd64 && !purego

package tensor

import "math"

// useExpKernels reports whether GELU and the softmax exponentials run on
// the four-lane kernels below. They replay math.Exp's FMA branch, so they
// run only where math.Exp is seen to take that branch: math chooses it
// from internal/cpu, which honours GODEBUG=cpu.fma=off, and with the
// other branch math.Exp(1.99) has different bits. The kernels also need
// AVX2 and FMA from the CPU.
var useExpKernels = useAVX2 && hasFMA() && math.Float64bits(math.Exp(1.99)) == 0x401d431b48579d1b

// hasFMA reports CPUID leaf 1 ECX bit 12 (FMA3).
func hasFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<12) != 0
}

// geluAVX sets x[i] = geluScalar(x[i]) for the n float32s at x, n a
// positive multiple of 4.
//
//go:noescape
func geluAVX(x *float32, n int)

// expShiftAVX sets x[i] = float32(math.Exp(float64(x[i] - shift))) for the
// n float32s at x, n a positive multiple of 4, and returns their float32
// sum, added in index order from +0 as ExpShiftSum's loop adds them. A
// result below 2^-1022, where math.Exp rescales a denormal, is +0 in
// float32 whatever its float64 bits, so the kernel returns +0 there
// without the rescale.
//
//go:noescape
func expShiftAVX(x *float32, n int, shift float32) (sum float32)

// exp4 sets each x[i] to math.Exp(x[i]) with the lane code expShiftAVX
// runs, except that a result below 2^-1022 is +0. The tests call it to
// compare the replay with math.Exp before any float32 rounding hides a
// difference.
//
//go:noescape
func exp4(x *[4]float64)

// tanh4 is exp4 for math.Tanh and the lane code of geluAVX.
//
//go:noescape
func tanh4(x *[4]float64)

// geluKernel runs GELU on the longest prefix of x whose length is a
// multiple of 4 and returns that length; the caller computes the rest.
func geluKernel(x []float32) int {
	n := len(x) &^ 3
	if !useExpKernels || n == 0 {
		return 0
	}
	geluAVX(&x[0], n)
	return n
}

// expShiftKernel is geluKernel for ExpShiftSum: it also returns the sum
// of the prefix it computed.
func expShiftKernel(x []float32, shift float32) (n int, sum float32) {
	n = len(x) &^ 3
	if !useExpKernels || n == 0 {
		return 0, 0
	}
	return n, expShiftAVX(&x[0], n, shift)
}
