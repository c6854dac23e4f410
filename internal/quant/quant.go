// Package quant implements Gaussian outlier-aware dictionary quantization
// of model weights, following GOBO (Zadeh et al., MICRO 2020) as adopted
// by STI §4.2 and §6.
//
// The scheme represents the vast majority of a weight tensor — the values
// that follow the fitted Gaussian — as k-bit indexes into a dictionary of
// 2^k float32 centroids obtained by equal-population clustering of the
// sorted weights. The few values whose log-likelihood under the fitted
// Gaussian falls below a fixed threshold (−4, the value used by both GOBO
// and STI) are outliers and are preserved verbatim alongside their
// positions. Quantization is lossy but preserves the layer's weight
// distribution, which is what lets STI mix shard bitwidths freely within
// a layer.
//
// The paper's implementation fits a single-component
// sklearn.mixture.GaussianMixture; a one-component mixture fitted by EM
// is exactly the maximum-likelihood Gaussian, so FitGaussian computes the
// MLE mean/variance directly.
package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"sti/internal/bitpack"
)

// OutlierLogLikelihood is the log-likelihood threshold below which a
// weight is treated as an outlier and stored at full fidelity (−4 in the
// paper and in GOBO).
const OutlierLogLikelihood = -4.0

// MinBits and MaxBits bound the supported quantized bitwidths. The paper
// instantiates K fidelity versions with k = 2..6.
const (
	MinBits = 1
	MaxBits = 8
)

// Gaussian is a fitted normal distribution over a weight population.
type Gaussian struct {
	Mean float64
	Std  float64
}

// FitGaussian returns the maximum-likelihood Gaussian for the values.
// It panics on an empty input: quantizing an empty tensor is a caller
// bug, not a data condition.
func FitGaussian(values []float32) Gaussian {
	if len(values) == 0 {
		panic("quant: FitGaussian on empty input")
	}
	var sum float64
	for _, v := range values {
		sum += float64(v)
	}
	mean := sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := float64(v) - mean
		ss += float64(d * d) // no fused multiply-add: arm64 rounds as amd64
	}
	std := math.Sqrt(ss / float64(len(values)))
	if std == 0 {
		// Degenerate constant tensor; keep the pdf finite.
		std = 1e-12
	}
	return Gaussian{Mean: mean, Std: std}
}

// LogLikelihood returns the log of the normal pdf at x.
func (g Gaussian) LogLikelihood(x float64) float64 {
	d := (x - g.Mean) / g.Std
	// The conversions keep arm64 from fusing a product into a subtraction,
	// so every architecture rounds the same way.
	return float64(-0.5*math.Log(2*math.Pi)) - math.Log(g.Std) - float64(0.5*d*d)
}

// Block is one quantized weight tensor: k-bit centroid indexes for the
// Gaussian-conforming weights plus verbatim outliers. A Block is the
// payload of one shard fidelity version on disk.
type Block struct {
	Bits  int // index bitwidth k
	Count int // total number of weights, outliers included

	Packed    []byte    // bit-packed centroid indexes, one per weight
	Centroids []float32 // 2^Bits dictionary entries, ascending

	// Outliers, parallel slices sorted by position. An outlier's packed
	// index is 0 and is ignored during dequantization.
	OutlierPos []uint32
	OutlierVal []float32
}

// Quantize compresses values into a k-bit Block. Outliers are detected
// against the fitted Gaussian with the paper's −4 log-likelihood
// threshold; remaining weights are clustered into 2^bits equal-population
// clusters whose arithmetic means become the centroids (the paper's §6
// procedure).
func Quantize(values []float32, bits int) *Block {
	return quantize(values, bits, 0)
}

// QuantizeRefined is Quantize followed by `iters` Lloyd (1-D k-means)
// refinement steps on the inlier centroids. Equal-population splits are
// what the paper implements; Lloyd iterations strictly reduce
// reconstruction error at identical on-disk size, offered as an
// improvement knob for the preprocessor.
func QuantizeRefined(values []float32, bits, iters int) *Block {
	return quantize(values, bits, iters)
}

func quantize(values []float32, bits, lloydIters int) *Block {
	if bits < MinBits || bits > MaxBits {
		panic(fmt.Sprintf("quant: bits %d outside [%d,%d]", bits, MinBits, MaxBits))
	}
	if len(values) == 0 {
		panic("quant: Quantize on empty input")
	}
	g := FitGaussian(values)

	b := &Block{Bits: bits, Count: len(values)}
	inlierPos := make([]int, 0, len(values))
	for i, v := range values {
		if g.LogLikelihood(float64(v)) < OutlierLogLikelihood {
			b.OutlierPos = append(b.OutlierPos, uint32(i))
			b.OutlierVal = append(b.OutlierVal, v)
		} else {
			inlierPos = append(inlierPos, i)
		}
	}
	// Pathological case: everything an outlier (possible only for wild
	// synthetic data). Fall back to treating all values as inliers so the
	// block stays well-formed.
	if len(inlierPos) == 0 {
		inlierPos = inlierPos[:0]
		for i := range values {
			inlierPos = append(inlierPos, i)
		}
		b.OutlierPos = nil
		b.OutlierVal = nil
	}

	// Equal-population clustering: sort inliers by value, chunk into 2^k
	// contiguous clusters, centroid = cluster mean.
	sorted := make([]int, len(inlierPos))
	copy(sorted, inlierPos)
	sort.Slice(sorted, func(i, j int) bool { return values[sorted[i]] < values[sorted[j]] })

	nClusters := 1 << bits
	if nClusters > len(sorted) {
		nClusters = len(sorted)
	}
	b.Centroids = make([]float32, 1<<bits)
	indexes := make([]uint8, len(values))
	// Equal-population boundaries over the sorted inliers.
	bounds := make([]int, nClusters+1)
	for c := 0; c <= nClusters; c++ {
		bounds[c] = c * len(sorted) / nClusters
	}
	assign := func() {
		for c := 0; c < nClusters; c++ {
			lo, hi := bounds[c], bounds[c+1]
			var sum float64
			for _, pos := range sorted[lo:hi] {
				sum += float64(values[pos])
			}
			if hi > lo {
				b.Centroids[c] = float32(sum / float64(hi-lo))
			}
			for _, pos := range sorted[lo:hi] {
				indexes[pos] = uint8(c)
			}
		}
	}
	assign()
	// Optional Lloyd refinement: in 1-D, the optimal boundary between
	// two adjacent centroids is their midpoint; move boundaries there
	// and recompute centroids. Each iteration cannot increase MSE.
	for it := 0; it < lloydIters; it++ {
		for c := 1; c < nClusters; c++ {
			mid := (b.Centroids[c-1] + b.Centroids[c]) / 2
			// Advance or retreat the boundary to the first sorted value
			// above the midpoint, staying within neighbours.
			i := bounds[c]
			for i > bounds[c-1]+1 && values[sorted[i-1]] > mid {
				i--
			}
			for i < bounds[c+1]-1 && values[sorted[i]] <= mid {
				i++
			}
			bounds[c] = i
		}
		assign()
	}
	// Fill unused dictionary slots (when the tensor is smaller than the
	// dictionary) with the last real centroid so the dictionary stays
	// monotone.
	for c := nClusters; c < len(b.Centroids); c++ {
		b.Centroids[c] = b.Centroids[nClusters-1]
	}
	b.Packed = bitpack.Pack(indexes, bits)
	return b
}

// Dequantize reconstructs the float32 weights from the block. It is the
// mirror of Quantize: centroid substitution for inliers, verbatim values
// for outliers.
func (b *Block) Dequantize() []float32 {
	return b.DequantizeInto(make([]float32, b.Count))
}

// DequantizeInto reconstructs into dst (length ≥ b.Count) and returns
// dst[:b.Count].
func (b *Block) DequantizeInto(dst []float32) []float32 {
	if len(dst) < b.Count {
		panic("quant: DequantizeInto dst too short")
	}
	b.DequantizeRows(dst, 0, 1, b.Count, b.Count)
	return dst[:b.Count]
}

// DequantizeRows reconstructs weights [off, off+rows*cols) of the block
// into dst as rows runs of cols values, stride apart: weight
// off+r*cols+c lands at dst[r*stride+c]. The packed indexes are read in
// place, so a shard's row segments dequantize straight into the columns
// of an assembled sub-layer with no intermediate slice. OutlierPos must
// be ascending, as Quantize writes it.
func (b *Block) DequantizeRows(dst []float32, off, rows, cols, stride int) {
	if b.Bits < MinBits || b.Bits > MaxBits {
		panic(fmt.Sprintf("quant: bits %d outside [%d,%d]", b.Bits, MinBits, MaxBits))
	}
	if off < 0 || rows < 0 || cols < 0 || off+rows*cols > b.Count {
		panic(fmt.Sprintf("quant: DequantizeRows [%d,+%dx%d) outside %d weights", off, rows, cols, b.Count))
	}
	if rows == 0 || cols == 0 {
		return
	}
	if stride < cols || (rows-1)*stride+cols > len(dst) {
		panic("quant: DequantizeRows dst too short")
	}
	if len(b.Packed) < bitpack.PackedLen(b.Count, b.Bits) {
		panic("quant: packed indexes too short")
	}
	var table [1 << MaxBits]float32
	copy(table[:], b.Centroids)
	for r := 0; r < rows; r++ {
		lookupRun(dst[r*stride:r*stride+cols], b.Packed, off+r*cols, b.Bits, &table)
	}
	// Outliers overwrite their inlier slots: binary-search the first one
	// at or past off, then walk forward until the range ends.
	end := off + rows*cols
	lo, hi := 0, len(b.OutlierPos)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); int(b.OutlierPos[mid]) < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(b.OutlierPos) && int(b.OutlierPos[i]) < end; i++ {
		rel := int(b.OutlierPos[i]) - off
		dst[rel/cols*stride+rel%cols] = b.OutlierVal[i]
	}
}

// lookupRun writes len(dst) dictionary entries whose bits-wide indexes
// start at element idx of the packed stream. Eight indexes span exactly
// bits bytes, so the body reads them with one 64-bit load (a bit offset
// of up to 7 plus 8×7 bits still fits; 8-bit indexes are always byte
// aligned); the tail falls back to the per-index cursor of
// bitpack.Unpack.
func lookupRun(dst []float32, packed []byte, idx, bits int, table *[1 << MaxBits]float32) {
	mask := uint8(1<<bits - 1)
	bitPos := idx * bits
	i := 0
	for ; i+8 <= len(dst) && bitPos>>3+8 <= len(packed); i += 8 {
		w := binary.LittleEndian.Uint64(packed[bitPos>>3:]) >> (bitPos & 7)
		d := dst[i : i+8 : i+8]
		d[0] = table[uint8(w)&mask]
		w >>= bits
		d[1] = table[uint8(w)&mask]
		w >>= bits
		d[2] = table[uint8(w)&mask]
		w >>= bits
		d[3] = table[uint8(w)&mask]
		w >>= bits
		d[4] = table[uint8(w)&mask]
		w >>= bits
		d[5] = table[uint8(w)&mask]
		w >>= bits
		d[6] = table[uint8(w)&mask]
		w >>= bits
		d[7] = table[uint8(w)&mask]
		bitPos += 8 * bits
	}
	for ; i < len(dst); i++ {
		byteIdx, shift := bitPos>>3, bitPos&7
		v := uint16(packed[byteIdx]) >> shift
		if shift+bits > 8 {
			v |= uint16(packed[byteIdx+1]) << (8 - shift)
		}
		dst[i] = table[uint8(v)&mask]
		bitPos += bits
	}
}

// OutlierFraction returns the fraction of weights stored verbatim.
func (b *Block) OutlierFraction() float64 {
	return float64(len(b.OutlierPos)) / float64(b.Count)
}

// SizeBytes returns the serialized size of the block: packed indexes,
// the centroid dictionary, and (position, value) pairs for outliers.
// This is the number the IO planner charges against a layer's AIB.
func (b *Block) SizeBytes() int {
	return len(b.Packed) + 4*len(b.Centroids) + 8*len(b.OutlierPos)
}

// MeanSquaredError returns the reconstruction MSE of the block against
// the original values, a direct fidelity measure used in tests and in
// the accuracy surface's calibration.
func (b *Block) MeanSquaredError(original []float32) float64 {
	if len(original) != b.Count {
		panic("quant: MeanSquaredError length mismatch")
	}
	rec := b.Dequantize()
	var mse float64
	for i, v := range original {
		d := float64(rec[i]) - float64(v)
		mse += float64(d * d) // no fused multiply-add: arm64 rounds as amd64
	}
	return mse / float64(b.Count)
}
