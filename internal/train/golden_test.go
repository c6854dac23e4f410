package train

import (
	"hash/fnv"
	"math"
	"testing"

	"sti/internal/glue"
	"sti/internal/model"
)

// goldenTrainHash is the FNV-64a of math.Float32bits of every parameter
// after TestGoldenTrainTiny's run. It was captured before the trainer's
// products moved from the scalar transposed matmuls onto tensor.MatMul,
// and both amd64 builds reproduce it bit for bit.
const goldenTrainHash = 0xebdba4128823efa6

// TestGoldenTrainTiny pins the weights of one short, seeded,
// width-elastic epoch at the Tiny geometry, so a change to the trainer's
// forward, backward or optimizer that moves any rounding fails here. It
// must pass on amd64 with and without the assembly: the default build
// multiplies on the AVX2 panels, -tags purego on the portable loop.
func TestGoldenTrainTiny(t *testing.T) {
	cfg := model.Tiny()
	w := model.NewRandom(cfg, 7)
	ds, err := glue.Generate("SST-2", 64, 16, cfg.Vocab, cfg.MaxSeq, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, ds, Options{Epochs: 1, BatchSize: 8, LR: 1e-3, Seed: 7, WidthElastic: true}); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, p := range NewGrads(w).params(w) {
		for _, v := range p.param {
			b := math.Float32bits(v)
			h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
		}
	}
	if got := h.Sum64(); got != goldenTrainHash {
		t.Fatalf("trained weights moved: hash %#x, want %#x", got, uint64(goldenTrainHash))
	}
}
