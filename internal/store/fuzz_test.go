package store

import (
	"math"
	"math/rand"
	"testing"

	"sti/internal/model"
	"sti/internal/quant"
)

// decodeAll decodes every weight of a view through the serving path's
// segment writer.
func decodeAll(v *PayloadView) []float32 {
	dst := make([]float32, v.Count)
	v.DecodeInto(model.ShardSegment{Rows: 1, Cols: v.Count, Stride: v.Count, Dst: dst})
	return dst
}

// FuzzDecodePayload ensures arbitrary bytes never panic the decoder —
// a corrupted flash block must surface as an error, not a crash. The
// serving path parses views without re-checking the checksum, so
// ParsePayload must hold up on its own: it is fuzzed at every offset
// mod 4, where odd offsets force the copy fallback, and every offset
// must decode the same bits.
func FuzzDecodePayload(f *testing.F) {
	w := make([]float32, 500)
	rng := rand.New(rand.NewSource(1))
	for i := range w {
		w[i] = float32(rng.NormFloat64()) * 0.05
	}
	f.Add(EncodePayload(quant.Quantize(w, 3)))
	f.Add(EncodeRawPayload(w[:16]))
	f.Add([]byte{})
	f.Add([]byte{0x50, 0x49, 0x54, 0x53})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, decodeErr := DecodePayload(data)
		if decodeErr == nil {
			// A successfully decoded payload must be internally consistent.
			if got := p.Weights(); len(got) != p.Count {
				t.Fatalf("decoded %d weights, header says %d", len(got), p.Count)
			}
		}
		var ref []float32
		var refErr error
		for off := 0; off < 4; off++ {
			buf := make([]byte, off+len(data))[off:]
			copy(buf, data)
			v, err := ParsePayload(buf)
			if off == 0 {
				refErr = err
				if decodeErr == nil && err != nil {
					t.Fatalf("DecodePayload accepted what ParsePayload rejects: %v", err)
				}
			} else if (err == nil) != (refErr == nil) {
				t.Fatalf("offset %d: parse error %v, offset 0: %v", off, err, refErr)
			}
			if err != nil {
				continue
			}
			got := decodeAll(&v)
			if off == 0 {
				ref = got
				if decodeErr == nil && !sameFloatBits(got, p.Weights()) {
					t.Fatal("view decode differs from DecodePayload's weights")
				}
			} else if !sameFloatBits(got, ref) {
				t.Fatalf("offset %d decodes different bits than offset 0", off)
			}
		}
	})
}

func sameFloatBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestDecodeDetectsBitflips(t *testing.T) {
	w := make([]float32, 2000)
	rng := rand.New(rand.NewSource(2))
	for i := range w {
		w[i] = float32(rng.NormFloat64()) * 0.02
	}
	valid := EncodePayload(quant.Quantize(w, 4))
	if _, err := DecodePayload(valid); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	// Flip one bit anywhere: the checksum must catch it.
	for _, pos := range []int{0, 10, len(valid) / 2, len(valid) - 5} {
		corrupted := append([]byte(nil), valid...)
		corrupted[pos] ^= 0x40
		if _, err := DecodePayload(corrupted); err == nil {
			t.Fatalf("bit flip at %d not detected", pos)
		}
	}
}
