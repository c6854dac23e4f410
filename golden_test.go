package sti_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"sti"
	"sti/internal/importance"
	"sti/internal/model"
	"sti/internal/planner"
	"sti/internal/quant"
	"sti/internal/shard"
)

// goldenGeometry is the benchmark's bench-6x6 fixture: the shapes a
// serving classify and a decode step multiply at.
var goldenGeometry = sti.ModelConfig{Layers: 6, Heads: 6, Hidden: 192, FFN: 768, Vocab: 2048, MaxSeq: 64, Classes: 2}

var (
	goldenLengths = []int{8, 33, 64}
	goldenTiers   = []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	// goldenPadded is the fourth classify input: goldenPadded[0] real
	// tokens followed by goldenPadded[1] padding positions that its mask
	// leaves out of attention.
	goldenPadded = [2]int{24, 16}
)

// The golden values were captured from the scalar Go matmul before the
// AVX2 kernel existed; every build must reproduce them bit for bit.
var (
	// goldenLogits holds math.Float32bits of every classify logit,
	// indexed [tier][input], in goldenTiers × goldenLengths order, then
	// the padded input.
	goldenLogits = [][][]uint32{
		{ // 50ms, depth 5
			{0x3c94f117, 0xbe5eedd1},
			{0x3f389839, 0x3e7726fa},
			{0x3ec1e4af, 0x3f00965d},
			{0x3e9a1fd4, 0x3e5cc0d8},
		},
		{ // 100ms, depth 6
			{0x40028e02, 0x3e9b15ac},
			{0x3fbff81b, 0x3e11e8d6},
			{0x3f6e77c8, 0x3e2b6e81},
			{0x3facccf0, 0x3db65f5c},
		},
		{ // 200ms, depth 6
			{0x3e98e938, 0x3f591aa3},
			{0xbf6417b1, 0x3e3ce669},
			{0xbfc37e66, 0x3d4ef155},
			{0xbecd5d2c, 0x3dc247f2},
		},
	}
	// goldenTokens is the prompt plus the greedy continuation at the
	// 100 ms tier.
	goldenTokens = []int{273, 1034, 1795, 509, 1270, 2031, 745, 1506, 220, 981, 1742, 456, 1217, 1978, 692, 1453, 533, 1143, 1143, 1143, 533, 533, 533, 533}
	// goldenCausalHash is the FNV-64a of the bits of the 100 ms tier's
	// causal forward over goldenTokens.
	goldenCausalHash uint64 = 0xbe06ad74c24a0d0c
)

// goldenInput is a fixed token sequence of length n over the fixture's
// vocabulary (id 0 excluded).
func goldenInput(n int) []int {
	toks := make([]int, n)
	for i := range toks {
		toks[i] = 1 + (i*761+17*n)%(goldenGeometry.Vocab-1)
	}
	return toks
}

// goldenPaddedInput is goldenInput(n) followed by pad zero tokens, with
// a mask marking the first n positions valid.
func goldenPaddedInput(n, pad int) ([]int, []bool) {
	toks := append(goldenInput(n), make([]int, pad)...)
	mask := make([]bool, n+pad)
	for i := 0; i < n; i++ {
		mask[i] = true
	}
	return toks, mask
}

// goldenSubmodel plans the fixture at a tier on the Odroid profile with a
// 2 MiB preload budget and assembles the plan's submodel from quantized
// shards held in memory. quantized caches dequantized shards across tiers.
func goldenSubmodel(t *testing.T, w *model.Weights, tier time.Duration, quantized map[[3]int][]float32) *model.Submodel {
	t.Helper()
	cfg := w.Cfg
	req := planner.NewRequest(sti.Odroid(), cfg, importance.NewTable(cfg.Layers, cfg.Heads),
		planner.AnalyticSizer{Params: cfg.ShardParams()}, tier, 2<<20)
	req.SeqLen = cfg.MaxSeq
	p, err := req.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sm := &model.Submodel{Cfg: cfg, Parent: w}
	for l := 0; l < p.Depth; l++ {
		shards := make([]*model.ShardWeights, len(p.Slices[l]))
		for j, s := range p.Slices[l] {
			key := [3]int{l, s, p.Bits[l][j]}
			flat, ok := quantized[key]
			if !ok {
				flat = w.ExtractShard(l, s).Flatten()
				if key[2] != shard.FullBits {
					flat = quant.Quantize(flat, key[2]).Dequantize()
				}
				quantized[key] = flat
			}
			if shards[j], err = model.UnflattenShard(cfg, l, s, flat); err != nil {
				t.Fatal(err)
			}
		}
		sl, err := model.AssembleSubLayer(cfg, w.Layers[l], shards)
		if err != nil {
			t.Fatal(err)
		}
		sm.Layers = append(sm.Layers, sl)
	}
	return sm
}

// TestGoldenBench6x6Outputs pins the classify logits and the generated
// tokens of the bench-6x6 fixture bit for bit, so a change to a compute
// kernel that moves any rounding fails here. Classify runs the four
// inputs (one padded, with a partial mask) as one stacked batch, the way
// the pipeline serves them; generate
// runs the paged-KV decoder one row at a time. It must pass on every
// build: the default amd64 build runs the AVX2 matmul, -tags purego the
// portable loop.
func TestGoldenBench6x6Outputs(t *testing.T) {
	w := sti.NewRandomModel(goldenGeometry, 1)
	quantized := make(map[[3]int][]float32)
	inputs := make([][]int, len(goldenLengths))
	for i, n := range goldenLengths {
		inputs[i] = goldenInput(n)
	}
	masks := make([][]bool, len(inputs))
	padded, padMask := goldenPaddedInput(goldenPadded[0], goldenPadded[1])
	inputs = append(inputs, padded)
	masks = append(masks, padMask)

	var got strings.Builder
	mismatch := len(goldenLogits) != len(goldenTiers)
	got.WriteString("goldenLogits = [][][]uint32{\n")
	for ti, tier := range goldenTiers {
		sm := goldenSubmodel(t, w, tier, quantized)
		x, seqLens := sm.EmbedBatch(inputs)
		for _, sl := range sm.Layers {
			x = model.ForwardLayerBatch(sm.Cfg, sl, x, seqLens, masks)
		}
		fmt.Fprintf(&got, "\t{ // %v, depth %d\n", tier, len(sm.Layers))
		for i, logits := range sm.ClassifyBatch(x, seqLens) {
			bits := make([]string, len(logits))
			for j, v := range logits {
				b := math.Float32bits(v)
				bits[j] = fmt.Sprintf("%#08x", b)
				if ti >= len(goldenLogits) || i >= len(goldenLogits[ti]) || j >= len(goldenLogits[ti][i]) || goldenLogits[ti][i][j] != b {
					mismatch = true
				}
			}
			fmt.Fprintf(&got, "\t\t{%s},\n", strings.Join(bits, ", "))
		}
		got.WriteString("\t},\n")
	}
	got.WriteString("}\n")

	sm := goldenSubmodel(t, w, 100*time.Millisecond, quantized)
	seq, err := sm.GenerateCached(goldenInput(16), 8)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, v := range sm.CausalForward(seq).Data {
		b := math.Float32bits(v)
		h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
	}
	fmt.Fprintf(&got, "goldenTokens = %#v\ngoldenCausalHash = %#x\n", seq, h.Sum64())
	if fmt.Sprint(seq) != fmt.Sprint(goldenTokens) || h.Sum64() != goldenCausalHash {
		mismatch = true
	}
	if mismatch {
		t.Fatalf("bench-6x6 outputs moved; got\n%s", got.String())
	}
}
