package model

import "sti/internal/tensor"

// Batched forward path: B sequences stacked row-wise into one activation
// matrix so each layer's position-wise matmuls (Q/K/V/O projections,
// FFN, layernorm, residual) run once over all sequences, while attention
// — the only cross-position operation — is computed per sequence block
// with its own mask.
//
// Every kernel involved computes output rows independently of each
// other (tensor.MatMul processes row blocks; bias/layernorm/GELU are
// row- or element-wise), so stacking is bit-exact: logits of a batched
// forward are byte-identical to running each sequence alone. That
// equivalence is what lets the pipeline engine amortize one IO +
// decompress stream across a whole batch without changing any result.

// EmbedBatch embeds B token sequences into one stacked activation
// matrix (Σlᵢ × d) and returns the per-sequence row counts. Sequences
// may have different lengths.
func (sm *Submodel) EmbedBatch(batch [][]int) (*tensor.Matrix, []int) {
	seqLens := make([]int, len(batch))
	total := 0
	for i, tokens := range batch {
		seqLens[i] = len(tokens)
		total += len(tokens)
	}
	x := tensor.New(total, sm.Cfg.Hidden)
	off := 0
	for _, tokens := range batch {
		x.SetRowSlice(off, sm.Embed(tokens))
		off += len(tokens)
	}
	return x, seqLens
}

// ForwardLayerBatch runs one assembled sub-layer over B stacked
// sequences. x holds the sequences' activations stacked row-wise
// (rows = sum of seqLens); masks[i] marks sequence i's valid positions
// (nil or empty = all valid). Each sequence's rows are byte-identical
// to running it alone, as a batch of one.
func ForwardLayerBatch(cfg Config, sl *SubLayer, x *tensor.Matrix, seqLens []int, masks [][]bool) *tensor.Matrix {
	return forwardLayer(cfg, sl, x, seqLens, masks, false)
}

// ClassifyBatch applies the CLS pooler and classifier to each sequence
// of a stacked activation matrix (each sequence's CLS token is its
// first stacked row).
func (sm *Submodel) ClassifyBatch(x *tensor.Matrix, seqLens []int) [][]float32 {
	out := make([][]float32, len(seqLens))
	off := 0
	for i, l := range seqLens {
		out[i] = sm.Classify(tensor.FromSlice(1, sm.Cfg.Hidden, x.Row(off)))
		off += l
	}
	return out
}
