package model

import (
	"testing"
)

// batchSubmodel builds a full-width tiny submodel for batch-equivalence
// tests.
func batchSubmodel(t *testing.T) *Submodel {
	t.Helper()
	cfg := Tiny()
	w := NewRandom(cfg, 123)
	sm, err := NewSubmodel(w, cfg.Layers, cfg.Heads)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// batchInputs returns varied-length sequences with mixed nil, empty and
// padding masks — the shapes the serving layer actually batches. An
// empty mask, like nil, marks every position valid.
func batchInputs(maxSeq int) (batch [][]int, masks [][]bool) {
	seqs := [][]int{
		{1, 9, 8, 7, 2},
		{1, 5, 2},
		{1, 4, 4, 4, 4, 4, 2, 0},
		{1, 2},
		{1, 6, 3, 2},
	}
	padded := seqs[2]
	mask := make([]bool, len(padded))
	for i := range mask {
		mask[i] = padded[i] != 0
	}
	return seqs, [][]bool{nil, nil, mask, nil, {}}
}

func TestEmbedBatchMatchesEmbed(t *testing.T) {
	sm := batchSubmodel(t)
	batch, _ := batchInputs(sm.Cfg.MaxSeq)
	x, seqLens := sm.EmbedBatch(batch)
	off := 0
	for i, tokens := range batch {
		if seqLens[i] != len(tokens) {
			t.Fatalf("seqLens[%d] = %d, want %d", i, seqLens[i], len(tokens))
		}
		want := sm.Embed(tokens)
		for r := 0; r < want.Rows; r++ {
			wr, gr := want.Row(r), x.Row(off+r)
			for c := range wr {
				if wr[c] != gr[c] {
					t.Fatalf("seq %d row %d col %d: batch %v != single %v", i, r, c, gr[c], wr[c])
				}
			}
		}
		off += len(tokens)
	}
}

// TestForwardLayerBatchByteIdentical is the core batched-execution
// guarantee: stacking B sequences through one layer produces exactly
// the activations of B single forwards (batches of one, via Logits) —
// bit-for-bit, not just close.
func TestForwardLayerBatchByteIdentical(t *testing.T) {
	sm := batchSubmodel(t)
	batch, masks := batchInputs(sm.Cfg.MaxSeq)
	x, seqLens := sm.EmbedBatch(batch)
	for _, sl := range sm.Layers {
		x = ForwardLayerBatch(sm.Cfg, sl, x, seqLens, masks)
	}
	got := sm.ClassifyBatch(x, seqLens)

	for i, tokens := range batch {
		want := sm.Logits(tokens, masks[i])
		if len(got[i]) != len(want) {
			t.Fatalf("seq %d: %d logits, want %d", i, len(got[i]), len(want))
		}
		for c := range want {
			if got[i][c] != want[c] {
				t.Fatalf("seq %d logit %d: batch %v != single %v", i, c, got[i][c], want[c])
			}
		}
	}
}

func TestForwardLayerBatchPanicsOnShapeMismatch(t *testing.T) {
	sm := batchSubmodel(t)
	batch, masks := batchInputs(sm.Cfg.MaxSeq)
	x, seqLens := sm.EmbedBatch(batch)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched seqLens must panic")
		}
	}()
	ForwardLayerBatch(sm.Cfg, sm.Layers[0], x, seqLens[:1], masks[:1])
}
