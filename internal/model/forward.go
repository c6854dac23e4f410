package model

import (
	"fmt"
	"math"

	"sti/internal/tensor"
)

// maskedScore is the additive logit applied to attention scores of
// padding positions before softmax.
const maskedScore = -1e9

// Submodel is an executable n×m model: n assembled sub-layers over the
// resident embeddings and classification head of the parent weights.
// This is what the pipeline executes layer by layer.
type Submodel struct {
	Cfg    Config
	Parent *Weights // resident parameters: embeddings, pooler, classifier
	Layers []*SubLayer
}

// NewSubmodel assembles an n×m submodel from full-fidelity shards of w,
// using slice indexes 0..m-1 of layers 0..n-1. Experiments that execute
// quantized plans build Submodels shard-by-shard instead.
func NewSubmodel(w *Weights, n, m int) (*Submodel, error) {
	if n <= 0 || n > w.Cfg.Layers || m <= 0 || m > w.Cfg.Heads {
		return nil, fmt.Errorf("model: submodel %dx%d outside %dx%d", n, m, w.Cfg.Layers, w.Cfg.Heads)
	}
	sm := &Submodel{Cfg: w.Cfg, Parent: w}
	for l := 0; l < n; l++ {
		shards := make([]*ShardWeights, m)
		for i := 0; i < m; i++ {
			shards[i] = w.ExtractShard(l, i)
		}
		sl, err := AssembleSubLayer(w.Cfg, w.Layers[l], shards)
		if err != nil {
			return nil, err
		}
		sm.Layers = append(sm.Layers, sl)
	}
	return sm, nil
}

// Embed produces the l×d input activations for a token sequence:
// token + position embeddings followed by the embedding layernorm.
// mask[i]==false marks padding; padding rows are embedded normally but
// masked out of attention.
func (sm *Submodel) Embed(tokens []int) *tensor.Matrix {
	cfg := sm.Cfg
	if len(tokens) > cfg.MaxSeq {
		panic(fmt.Sprintf("model: sequence %d exceeds MaxSeq %d", len(tokens), cfg.MaxSeq))
	}
	x := tensor.New(len(tokens), cfg.Hidden)
	for i, id := range tokens {
		if id < 0 || id >= cfg.Vocab {
			panic(fmt.Sprintf("model: token id %d outside vocab %d", id, cfg.Vocab))
		}
		row := x.Row(i)
		copy(row, sm.Parent.Emb.Token.Row(id))
		pos := sm.Parent.Emb.Position.Row(i)
		for c := range row {
			row[c] += pos[c]
		}
	}
	tensor.LayerNormRows(x, sm.Parent.Emb.LNG, sm.Parent.Emb.LNB, nil, nil)
	return x
}

// forwardLayer is the one full-sequence layer body. It runs one
// assembled sub-layer over B sequences stacked row-wise in x (rows =
// sum of seqLens) and returns the new activations. masks[s] marks
// sequence s's valid (non-padding) positions; a nil or empty mask means
// all valid. causal also hides every later position from each position,
// the generative mask of §3.4. Attention is the only part of the layer
// that differs from the decode step (StepBatch), which shares project
// and finish.
func forwardLayer(cfg Config, sl *SubLayer, x *tensor.Matrix, seqLens []int, masks [][]bool, causal bool) *tensor.Matrix {
	total := 0
	for _, l := range seqLens {
		total += l
	}
	if total != x.Rows {
		panic(fmt.Sprintf("model: batch rows %d != sum of seqLens %d", x.Rows, total))
	}
	if len(masks) != len(seqLens) {
		panic(fmt.Sprintf("model: %d masks for %d sequences", len(masks), len(seqLens)))
	}
	hd := cfg.HeadDim()
	q, k, v := project(cfg, sl, x)
	concat := tensor.New(x.Rows, sl.Width*hd)
	scale := float32(1 / math.Sqrt(float64(hd)))
	maxL := 0
	for _, l := range seqLens {
		maxL = max(maxL, l)
	}
	// One scratch serves every (sequence, head): gatherHead's Q, Kᵀ and
	// V, then the head's output and its l×l scores, 4·l·hd + l² floats.
	scratch := make([]float32, 4*maxL*hd+maxL*maxL)
	off := 0
	for s, l := range seqLens {
		for h := 0; h < sl.Width; h++ {
			qh, kT, vh := gatherHead(scratch, q, k, v, off, l, h*hd, hd)
			scores := tensor.FromSlice(l, l, scratch[4*l*hd:][:l*l])
			tensor.MatMul(scores, qh, kT)
			tensor.Scale(scores, scale)
			maskScores(scores, masks[s], causal)
			tensor.SoftmaxRows(scores)
			head := tensor.FromSlice(l, hd, scratch[3*l*hd:][:l*hd])
			tensor.MatMul(head, scores, vh)
			for r := 0; r < l; r++ {
				copy(concat.Row(off + r)[h*hd:], head.Row(r))
			}
		}
		off += l
	}
	return finish(cfg, sl, x, concat)
}

// gatherHead copies columns [c0, c0+hd) of rows [off, off+l) of q, k and
// v, one attention head of one sequence, into views of the front of buf
// (at least 3·l·hd floats). q, k and v share one width. Q's and V's rows
// keep their layout; K's are written transposed, so QKᵀ is a plain
// MatMul on the panels.
func gatherHead(buf []float32, q, k, v *tensor.Matrix, off, l, c0, hd int) (qh, kT, vh *tensor.Matrix) {
	n := l * hd
	qh = tensor.FromSlice(l, hd, buf[:n])
	kT = tensor.FromSlice(hd, l, buf[n:2*n])
	vh = tensor.FromSlice(l, hd, buf[2*n:3*n])
	for r := 0; r < l; r++ {
		src := (off+r)*q.Cols + c0
		copy(qh.Row(r), q.Data[src:])
		copy(vh.Row(r), v.Data[src:])
		for j, x := range k.Data[src : src+hd] {
			kT.Data[j*l+r] = x
		}
	}
	return qh, kT, vh
}

// maskScores sets to maskedScore every score of one sequence's l×l
// block that its position may not attend to: padding columns (mask[j]
// false) and, when causal, the columns after the row's own position.
// An empty mask hides no column.
func maskScores(scores *tensor.Matrix, mask []bool, causal bool) {
	if len(mask) == 0 && !causal {
		return
	}
	for i := 0; i < scores.Rows; i++ {
		row := scores.Row(i)
		if len(mask) != 0 {
			for j := range row {
				if !mask[j] {
					row[j] = maskedScore
				}
			}
		}
		if causal {
			for j := i + 1; j < len(row); j++ {
				row[j] = maskedScore
			}
		}
	}
}

// project returns the query, key and value projections of x's rows,
// biases added.
func project(cfg Config, sl *SubLayer, x *tensor.Matrix) (q, k, v *tensor.Matrix) {
	mw := sl.Width * cfg.HeadDim()
	q = tensor.New(x.Rows, mw)
	k = tensor.New(x.Rows, mw)
	v = tensor.New(x.Rows, mw)
	tensor.MatMul(q, x, sl.Q)
	tensor.AddBias(q, sl.QB)
	tensor.MatMul(k, x, sl.K)
	tensor.AddBias(k, sl.KB)
	tensor.MatMul(v, x, sl.V)
	tensor.AddBias(v, sl.VB)
	return q, k, v
}

// finish runs the rest of the layer on the heads' concatenated
// attention outputs: the O projection, the residual with the layer
// input x and LN1, the FFN with GELU, and the residual with LN2.
func finish(cfg Config, sl *SubLayer, x, concat *tensor.Matrix) *tensor.Matrix {
	attn := tensor.New(x.Rows, cfg.Hidden)
	tensor.MatMul(attn, concat, sl.O)
	tensor.AddBias(attn, sl.OB)
	tensor.Add(attn, attn, x)
	tensor.LayerNormRows(attn, sl.LN1G, sl.LN1B, nil, nil)

	inner := tensor.New(x.Rows, sl.Width*cfg.FFNSlice())
	tensor.MatMul(inner, attn, sl.FFN1)
	tensor.AddBias(inner, sl.FFN1B)
	tensor.GELU(inner)
	out := tensor.New(x.Rows, cfg.Hidden)
	tensor.MatMul(out, inner, sl.FFN2)
	tensor.AddBias(out, sl.FFN2B)
	tensor.Add(out, out, attn)
	tensor.LayerNormRows(out, sl.LN2G, sl.LN2B, nil, nil)
	return out
}

// Logits runs the full submodel on a token sequence and returns the
// class logits. mask marks valid positions (nil or empty = all valid).
func (sm *Submodel) Logits(tokens []int, mask []bool) []float32 {
	x := sm.Embed(tokens)
	for _, sl := range sm.Layers {
		x = ForwardLayerBatch(sm.Cfg, sl, x, []int{len(tokens)}, [][]bool{mask})
	}
	return sm.Classify(x)
}

// Classify applies the CLS pooler and classifier to final activations.
func (sm *Submodel) Classify(x *tensor.Matrix) []float32 {
	cls := tensor.FromSlice(1, sm.Cfg.Hidden, x.Row(0))
	pooled := tensor.New(1, sm.Cfg.Hidden)
	tensor.MatMul(pooled, cls, sm.Parent.Pooler)
	tensor.AddBias(pooled, sm.Parent.PoolerB)
	tensor.Tanh(pooled)
	logits := tensor.New(1, sm.Cfg.Classes)
	tensor.MatMul(logits, pooled, sm.Parent.Cls)
	tensor.AddBias(logits, sm.Parent.ClsB)
	return logits.Row(0)
}

// Predict returns the argmax class for a token sequence.
func (sm *Submodel) Predict(tokens []int, mask []bool) int {
	logits := sm.Logits(tokens, mask)
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// FLOPs estimates the floating-point operations of one forward pass of
// an n×m submodel on a length-l input: the standard 2·params·l matmul
// cost plus the l²-order attention score/value products. Used by the
// experiments to report FLOPs ratios (Figure 8).
func FLOPs(cfg Config, n, m, l int) int64 {
	hd, fs, d := cfg.HeadDim(), cfg.FFNSlice(), cfg.Hidden
	perLayer := int64(0)
	perLayer += int64(2*l) * int64(d) * int64(3*m*hd) // Q,K,V projections
	perLayer += int64(2*l) * int64(m*hd) * int64(d)   // O projection
	perLayer += int64(2*l) * int64(d) * int64(m*fs)   // FFN1
	perLayer += int64(2*l) * int64(m*fs) * int64(d)   // FFN2
	perLayer += int64(m) * (int64(2*l*l*hd) * 2)      // scores + weighted sum per head
	return int64(n) * perLayer
}
