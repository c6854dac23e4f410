//go:build exhaustive

package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExhaustiveFloat32 runs every float32 bit pattern through GELU and
// through ExpShiftSum at shift 0 and at a nonzero shift, and compares
// each result, and each chunk's sum, with the scalar code bit for bit.
// The 2^32 inputs split into chunks across GOMAXPROCS workers; the run
// takes minutes, so it builds only with -tags exhaustive:
//
//	go test -tags exhaustive -run Exhaustive -timeout 60m ./internal/tensor
func TestExhaustiveFloat32(t *testing.T) {
	const chunk = 1 << 16
	var next atomic.Uint64
	var failures atomic.Int32
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 20 {
			t.Errorf(format, args...)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := make([]float32, chunk)
			got := make([]float32, chunk)
			want := make([]float32, chunk)
			for {
				start := next.Add(chunk) - chunk
				if start >= 1<<32 || failures.Load() > 20 {
					return
				}
				for i := range in {
					in[i] = math.Float32frombits(uint32(start) + uint32(i))
				}
				copy(got, in)
				GELU(FromSlice(1, chunk, got))
				for i, x := range in {
					if ws := geluScalar(x); math.Float32bits(got[i]) != math.Float32bits(ws) {
						fail("GELU(%#08x) = %#08x, scalar %#08x", math.Float32bits(x), math.Float32bits(got[i]), math.Float32bits(ws))
					}
				}
				for _, shift := range []float32{0, 3.25} {
					copy(got, in)
					copy(want, in)
					sum, wantSum := ExpShiftSum(got, shift), expShiftSumScalar(want, shift)
					for i, v := range in {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							fail("exp(%#08x − %v) = %#08x, scalar %#08x", math.Float32bits(v), shift, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
					if !sameSum(sum, wantSum) {
						fail("chunk %#08x shift %v: sum %#08x, scalar %#08x", start, shift, math.Float32bits(sum), math.Float32bits(wantSum))
					}
				}
			}
		}()
	}
	wg.Wait()
}
