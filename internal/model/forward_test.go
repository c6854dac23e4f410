package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sti/internal/tensor"
)

// refForwardLayer is forwardLayer as it ran before attention moved onto
// the panels, applied to each sequence of the batch on its own: per-head
// ColSlice and RowSlice copies of Q, K and V, QKᵀ through the scalar
// matMulBT, and fresh scores and head matrices.
func refForwardLayer(cfg Config, sl *SubLayer, x *tensor.Matrix, seqLens []int, masks [][]bool, causal bool) *tensor.Matrix {
	hd := cfg.HeadDim()
	scale := float32(1 / math.Sqrt(float64(hd)))
	out := tensor.New(x.Rows, cfg.Hidden)
	off := 0
	for s, l := range seqLens {
		xs := x.RowSlice(off, off+l)
		q, k, v := project(cfg, sl, xs)
		concat := tensor.New(l, sl.Width*hd)
		for h := 0; h < sl.Width; h++ {
			qh := q.ColSlice(h*hd, (h+1)*hd).RowSlice(0, l)
			kh := k.ColSlice(h*hd, (h+1)*hd).RowSlice(0, l)
			vh := v.ColSlice(h*hd, (h+1)*hd).RowSlice(0, l)
			scores := tensor.New(l, l)
			matMulBT(scores, qh, kh)
			tensor.Scale(scores, scale)
			maskScores(scores, masks[s], causal)
			tensor.SoftmaxRows(scores)
			head := tensor.New(l, hd)
			tensor.MatMul(head, scores, vh)
			concat.SetColSlice(h*hd, head)
		}
		out.SetRowSlice(off, finish(cfg, sl, xs, concat))
		off += l
	}
	return out
}

// randomMask returns nil, an empty mask or an l-position mask with about
// a third of its positions padding, each one time in three.
func randomMask(l int, rng *rand.Rand) []bool {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []bool{}
	}
	mask := make([]bool, l)
	for i := range mask {
		mask[i] = rng.Intn(3) != 0
	}
	return mask
}

// TestForwardLayerMatchesPerHeadReference checks forwardLayer against
// refForwardLayer bit for bit at every sequence length l = 1–64 of a
// head width of 32, bench-6x6's: an odd l sends the last column of QKᵀ
// (l×32×l) through the portable loop, and l off a multiple of 4 sends
// rows through the one-row panels. Each l sits at a random place in a
// batch of mixed lengths with nil, empty and padded masks, with and
// without the causal mask, on a sub-layer narrower than the model.
func TestForwardLayerMatchesPerHeadReference(t *testing.T) {
	cfg := Config{Layers: 1, Heads: 3, Hidden: 96, FFN: 96, Vocab: 8, MaxSeq: 64, Classes: 2}
	w := NewRandom(cfg, 141)
	sm, err := NewSubmodel(w, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sl := sm.Layers[0]
	rng := rand.New(rand.NewSource(142))
	for l := 1; l <= cfg.MaxSeq; l++ {
		for _, causal := range []bool{false, true} {
			seqLens := []int{1 + rng.Intn(cfg.MaxSeq), 1 + rng.Intn(cfg.MaxSeq)}
			at := rng.Intn(len(seqLens) + 1)
			seqLens = append(seqLens[:at], append([]int{l}, seqLens[at:]...)...)
			masks := make([][]bool, len(seqLens))
			rows := 0
			for s, n := range seqLens {
				masks[s] = randomMask(n, rng)
				rows += n
			}
			x := tensor.NewRand(rows, cfg.Hidden, 1, rng)
			got := forwardLayer(cfg, sl, x, seqLens, masks, causal)
			want := refForwardLayer(cfg, sl, x, seqLens, masks, causal)
			name := fmt.Sprintf("l=%d causal=%v seqLens=%v", l, causal, seqLens)
			for i, wv := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(wv) {
					t.Fatalf("%s: element %d (row %d col %d) = %v, reference %v",
						name, i, i/want.Cols, i%want.Cols, got.Data[i], wv)
				}
			}
		}
	}
}
