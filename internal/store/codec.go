package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"sti/internal/bitpack"
	"sti/internal/model"
	"sti/internal/quant"
	"sti/internal/shard"
)

// payloadMagic guards each serialized shard payload.
const payloadMagic = 0x53544950 // "STIP"

// finishPayload appends the CRC32 trailer over everything written so
// far. Flash on cheap edge devices corrupts; a shard substituted with
// garbage weights would silently destroy accuracy, so every payload is
// verified once, where its bytes enter process memory (VerifyPayload
// at the SharedCache fill or the engine's direct read), and parsed
// without re-hashing after that.
func finishPayload(buf *bytes.Buffer) []byte {
	sum := crc32.ChecksumIEEE(buf.Bytes())
	_ = binary.Write(buf, binary.LittleEndian, sum)
	return buf.Bytes()
}

// ErrChecksum marks a payload whose bytes fail their CRC32 trailer.
var ErrChecksum = errors.New("store: payload checksum mismatch")

// VerifyPayload checks a serialized payload's CRC32 trailer. It is the
// ingress check: readers call it once on bytes fresh from flash or a
// peer, and every later parse of the same bytes skips it.
func VerifyPayload(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("%w: %d bytes, too short for the trailer", ErrChecksum, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.ChecksumIEEE(body); got != want {
		return fmt.Errorf("%w (%#x != %#x)", ErrChecksum, got, want)
	}
	return nil
}

// Payload is one decoded shard fidelity version: either a quantized
// block or raw float32 weights.
type Payload struct {
	Bits  int
	Count int
	Block *quant.Block // nil when Bits == shard.FullBits
	Raw   []float32    // nil when quantized
}

// Weights returns the full-fidelity float32 weights of the payload,
// dequantizing if necessary. This is the decompression step of the
// pipeline (§5.5): dictionary substitution back to FP32.
func (p *Payload) Weights() []float32 {
	if p.Bits == shard.FullBits {
		return p.Raw
	}
	return p.Block.Dequantize()
}

// EncodePayload serializes a quantized block into the store's on-disk
// format.
func EncodePayload(b *quant.Block) []byte {
	var buf bytes.Buffer
	writeU32 := func(v uint32) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	writeU32(payloadMagic)
	writeU32(uint32(b.Bits))
	writeU32(uint32(b.Count))
	writeU32(uint32(len(b.Centroids)))
	for _, c := range b.Centroids {
		writeU32(math.Float32bits(c))
	}
	writeU32(uint32(len(b.OutlierPos)))
	for _, p := range b.OutlierPos {
		writeU32(p)
	}
	for _, v := range b.OutlierVal {
		writeU32(math.Float32bits(v))
	}
	writeU32(uint32(len(b.Packed)))
	buf.Write(b.Packed)
	return finishPayload(&buf)
}

// EncodeRawPayload serializes full-fidelity weights.
func EncodeRawPayload(weights []float32) []byte {
	var buf bytes.Buffer
	writeU32 := func(v uint32) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	writeU32(payloadMagic)
	writeU32(uint32(shard.FullBits))
	writeU32(uint32(len(weights)))
	for _, w := range weights {
		writeU32(math.Float32bits(w))
	}
	return finishPayload(&buf)
}

// DecodePayload verifies a serialized shard payload's checksum and
// parses it. The returned payload aliases data like ParsePayload's
// view does; treat both as read-only.
func DecodePayload(data []byte) (*Payload, error) {
	if err := VerifyPayload(data); err != nil {
		return nil, err
	}
	v, err := ParsePayload(data)
	if err != nil {
		return nil, err
	}
	p := &Payload{Bits: v.Bits, Count: v.Count, Raw: v.Raw}
	if v.Bits != shard.FullBits {
		blk := v.Block
		p.Block = &blk
	}
	return p, nil
}

// PayloadView is a parsed, read-only view of one serialized shard
// payload. Its sections alias the payload bytes: on a little-endian
// host with 4-byte-aligned bytes the float32 and uint32 sections are
// reinterpreted in place, and only otherwise copied; Packed always
// aliases. Writing through a view corrupts every reader sharing the
// bytes (the preload buffer, the SharedCache, its peers).
type PayloadView struct {
	Bits  int
	Count int
	Raw   []float32   // the weights when Bits == shard.FullBits
	Block quant.Block // the quantized sections otherwise
}

// ParsePayload parses a serialized payload (CRC trailer included)
// without re-verifying its checksum: it is for bytes VerifyPayload
// already accepted at ingress. It still bounds-checks every section,
// so arbitrary bytes yield an error, never a panic or a view whose
// decode could index out of range.
func ParsePayload(data []byte) (PayloadView, error) {
	if len(data) < 4 {
		return PayloadView{}, fmt.Errorf("store: payload too short for checksum")
	}
	body, off := data[:len(data)-4], 0
	var err error
	// take returns the next n bytes; once a section overruns the body
	// every later take returns nil and err names the first overrun.
	take := func(n int) []byte {
		if err != nil {
			return nil
		}
		if n < 0 || n > len(body)-off {
			err = fmt.Errorf("store: truncated payload at offset %d", off)
			return nil
		}
		s := body[off : off+n]
		off += n
		return s
	}
	u32 := func() int {
		if b := take(4); b != nil {
			return int(binary.LittleEndian.Uint32(b))
		}
		return 0
	}
	magic, bits, count := u32(), u32(), u32()
	if err != nil {
		return PayloadView{}, err
	}
	if magic != payloadMagic {
		return PayloadView{}, fmt.Errorf("store: bad payload magic %#x", magic)
	}
	v := PayloadView{Bits: bits, Count: count}
	if bits == shard.FullBits {
		raw := take(4 * count)
		if err != nil {
			return PayloadView{}, err
		}
		v.Raw = float32s(raw)
		return v, nil
	}
	if bits < quant.MinBits || bits > quant.MaxBits {
		return PayloadView{}, fmt.Errorf("store: payload bitwidth %d invalid", bits)
	}
	nc := u32()
	cent := take(4 * nc)
	no := u32()
	pos, val := take(4*no), take(4*no)
	np := u32()
	packed := take(np)
	switch {
	case err != nil:
		return PayloadView{}, err
	case nc != 1<<bits:
		return PayloadView{}, fmt.Errorf("store: %d centroids for %d-bit payload", nc, bits)
	case np < bitpack.PackedLen(count, bits):
		return PayloadView{}, fmt.Errorf("store: packed section %d bytes, %d %d-bit indexes need %d", np, count, bits, bitpack.PackedLen(count, bits))
	}
	v.Block = quant.Block{
		Bits: bits, Count: count, Packed: packed,
		Centroids: float32s(cent), OutlierPos: uint32s(pos), OutlierVal: float32s(val),
	}
	// Dequantization trusts outliers to be ascending positions inside
	// the block; a payload that breaks this must not reach it.
	last := -1
	for _, p := range v.Block.OutlierPos {
		if int(p) <= last || int(p) >= count {
			return PayloadView{}, fmt.Errorf("store: outlier position %d out of order or past %d weights", p, count)
		}
		last = int(p)
	}
	return v, nil
}

// DecodeInto writes the view's weights [seg.Off, seg.Off+seg.Rows*seg.Cols)
// into seg.Dst at the segment's stride — copying raw weights, or
// dequantizing packed indexes in a single pass. Segment bounds are the
// caller's contract: a view whose Count differs from the shard geometry
// the segment was cut for must be rejected before decoding.
func (v *PayloadView) DecodeInto(seg model.ShardSegment) {
	if v.Bits != shard.FullBits {
		v.Block.DequantizeRows(seg.Dst, seg.Off, seg.Rows, seg.Cols, seg.Stride)
		return
	}
	seg.Write(v.Raw[seg.Off : seg.Off+seg.Rows*seg.Cols])
}

// littleEndian reports whether the host stores words least significant
// byte first, the payload's byte order — the precondition for
// reinterpreting payload sections in place.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// words views little-endian 4-byte words as []T: in place when the
// host byte order and b's alignment allow it, else as a copy decoded by
// conv.
func words[T float32 | uint32](b []byte, conv func(uint32) T) []T {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if littleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = conv(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func float32s(b []byte) []float32 { return words(b, math.Float32frombits) }

func uint32s(b []byte) []uint32 { return words(b, func(v uint32) uint32 { return v }) }
