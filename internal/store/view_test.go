package store

import (
	"errors"
	"math/rand"
	"testing"
	"unsafe"

	"sti/internal/quant"
)

// aligned copies b into a fresh allocation at byte offset off from an
// 8-byte boundary.
func aligned(b []byte, off int) []byte {
	buf := make([]byte, off+len(b))[off:]
	copy(buf, b)
	return buf
}

func viewWeights(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float32, n)
	for i := range w {
		w[i] = float32(rng.NormFloat64()) * 0.05
	}
	w[n/2] = 3 // an outlier
	return w
}

// TestParsePayloadAliasesAlignedBytes: on aligned bytes a little-endian
// host reads every section in place; at an odd offset the float32 and
// uint32 sections are copies with the same bits, and Packed aliases
// either way.
func TestParsePayloadAliasesAlignedBytes(t *testing.T) {
	w := viewWeights(300, 3)
	raw, packed := EncodeRawPayload(w), EncodePayload(quant.Quantize(w, 3))
	for _, off := range []int{0, 1, 2, 3, 4} {
		rb := aligned(raw, off)
		v, err := ParsePayload(rb)
		if err != nil {
			t.Fatal(err)
		}
		inPlace := littleEndian && off%4 == 0
		if got := unsafe.Pointer(&v.Raw[0]) == unsafe.Pointer(&rb[12]); got != inPlace {
			t.Fatalf("offset %d: raw section aliased=%v, want %v", off, got, inPlace)
		}
		if !sameFloatBits(v.Raw, w) {
			t.Fatalf("offset %d: raw weights differ", off)
		}

		pb := aligned(packed, off)
		q, err := ParsePayload(pb)
		if err != nil {
			t.Fatal(err)
		}
		if got := unsafe.Pointer(&q.Block.Centroids[0]) == unsafe.Pointer(&pb[16]); got != inPlace {
			t.Fatalf("offset %d: centroids aliased=%v, want %v", off, got, inPlace)
		}
		if pk := q.Block.Packed; unsafe.Pointer(&pk[len(pk)-1]) != unsafe.Pointer(&pb[len(pb)-5]) {
			t.Fatalf("offset %d: packed section is not aliased", off)
		}
		if len(q.Block.OutlierPos) == 0 {
			t.Fatal("fixture has no outliers")
		}
		want, err := DecodePayload(packed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloatBits(decodeAll(&q), want.Weights()) {
			t.Fatalf("offset %d: quantized view decodes different bits", off)
		}
	}
}

// TestParsePayloadRejectsUnsafeSections: sections that would let a
// decode index out of range are parse errors, checksum or not.
func TestParsePayloadRejectsUnsafeSections(t *testing.T) {
	good := func() *quant.Block {
		return &quant.Block{
			Bits: 3, Count: 10, Packed: make([]byte, 4), Centroids: make([]float32, 8),
			OutlierPos: []uint32{2, 5}, OutlierVal: []float32{1, 2},
		}
	}
	if _, err := ParsePayload(EncodePayload(good())); err != nil {
		t.Fatalf("well-formed block rejected: %v", err)
	}
	for name, mutate := range map[string]func(b *quant.Block){
		"outliers out of order": func(b *quant.Block) { b.OutlierPos = []uint32{5, 2} },
		"outlier past count":    func(b *quant.Block) { b.OutlierPos = []uint32{2, 10} },
		"duplicate outlier":     func(b *quant.Block) { b.OutlierPos = []uint32{5, 5} },
		"too few centroids":     func(b *quant.Block) { b.Centroids = b.Centroids[:7] },
		"packed too short":      func(b *quant.Block) { b.Packed = b.Packed[:3] },
	} {
		b := good()
		mutate(b)
		if _, err := ParsePayload(EncodePayload(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParsePayload(EncodeRawPayload(make([]float32, 4))[:20]); err == nil {
		t.Error("truncated raw section accepted")
	}
}

// TestSharedCacheRejectsCorruptFill: a flight filled with corrupt bytes
// — from flash or a peer — fails with the checksum error,
// is retained nowhere, and the next read retries.
func TestSharedCacheRejectsCorruptFill(t *testing.T) {
	bad := fake(1, 2, 4)
	bad[1] ^= 0x08
	src := &countingReader{payload: bad}
	c := NewSharedCache(src, 1<<10)
	if _, err := c.ReadShardPayload(1, 2, 4); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt flash read: err %v, want the checksum error", err)
	}
	if st := c.Stats(); st.RetainedBytes != 0 || st.FlashReads != 0 {
		t.Fatalf("stats %+v: corrupt bytes retained or counted as reads", st)
	}
	src.payload = nil
	if p, err := c.ReadShardPayload(1, 2, 4); err != nil || VerifyPayload(p) != nil {
		t.Fatalf("retry after corrupt read: %v", err)
	}

	peerSrc := &countingReader{}
	local := NewSharedCache(peerSrc, 1<<10)
	local.SetPeerFetch(func(layer, slice, bits int) ([]byte, bool) { return bad, true })
	if _, err := local.ReadShardPayload(1, 2, 4); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt peer payload: err %v, want the checksum error", err)
	}
	if _, ok := local.Peek(1, 2, 4); ok {
		t.Fatal("corrupt peer payload retained")
	}
	if st := local.Stats(); st.PeerHits != 0 || st.RetainedBytes != 0 {
		t.Fatalf("stats %+v: a corrupt peer answer counted as a hit", st)
	}
}
