//go:build amd64 && !purego

package tensor

// useAVX2 reports whether the CPU and OS support the AVX2 matmul kernel:
// CPUID leaf 7 EBX bit 5 (AVX2), leaf 1 ECX bits 27 (OSXSAVE) and 28
// (AVX), and XCR0 bits 1 and 2 (the OS saves XMM and YMM state).
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0 := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low 32 bits of XCR0.
func xgetbv() (eax uint32)

// matMul4x16 computes columns [0, n16) of four consecutive rows of
// dst = a×b. dst points at the first row's first element (row stride n),
// a at the first row of a (row stride k), b at b's first element (k×n,
// row stride n). Each output is summed as mul-then-add over ascending k
// from +0, exactly as the portable loop rounds. Requires k > 0 and n16 a
// positive multiple of 16, at most n.
//
//go:noescape
func matMul4x16(dst, a, b *float32, k, n, n16 int)

// matMul1x16 is matMul4x16 for a single row.
//
//go:noescape
func matMul1x16(dst, a, b *float32, k, n, n16 int)

// matMul1x64 is matMul1x16 over 64-column blocks: columns [0, n64) of one
// row, n64 a positive multiple of 64, at most n. Eight accumulators keep
// a one-row product from waiting on the latency of its adds.
//
//go:noescape
func matMul1x64(dst, a, b *float32, k, n, n64 int)

// matMulPanels computes the columns of rows [lo, hi) of dst = a×b that
// fill whole 16-float strips and returns how many columns it computed; the
// portable loop computes the rest. Rows go four at a time; each row left
// over takes its 64-column blocks in one panel and its remaining strips in
// another. Every panel sums a column over the same ascending k, so the
// split does not change a bit.
func matMulPanels(dst, a, b *Matrix, lo, hi int) int {
	k, n := a.Cols, b.Cols
	n16 := n &^ 15
	if !useAVX2 || n16 == 0 || k == 0 || lo >= hi {
		return 0
	}
	// The kernels index raw memory: check every operand spans its shape.
	_, _, _ = a.Data[hi*k-1], b.Data[k*n-1], dst.Data[hi*n-1]
	i := lo
	for ; i+4 <= hi; i += 4 {
		matMul4x16(&dst.Data[i*n], &a.Data[i*k], &b.Data[0], k, n, n16)
	}
	n64 := n &^ 63
	for ; i < hi; i++ {
		if n64 > 0 {
			matMul1x64(&dst.Data[i*n], &a.Data[i*k], &b.Data[0], k, n, n64)
		}
		if n16 > n64 {
			matMul1x16(&dst.Data[i*n+n64], &a.Data[i*k], &b.Data[n64], k, n, n16-n64)
		}
	}
	return n16
}
