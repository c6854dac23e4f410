package model

import (
	"fmt"
	"math"

	"sti/internal/tensor"
)

// Generative decoding — the paper's declared future work (§3.4: "STI's
// key ideas apply to generative models such as GPT-2 ... we consider
// them as future work"). The same elastic sharding applies unchanged:
// a causal submodel is assembled from exactly the same vertical shards;
// only the attention mask and the output head differ. The language-model
// head ties weights with the token embedding (as GPT-2 does), so no
// additional shards are needed.

// forwardLayerMasked is ForwardLayer with an arbitrary attention
// predicate: allowed(i, j) reports whether position i may attend to
// position j.
func forwardLayerMasked(cfg Config, sl *SubLayer, x *tensor.Matrix, allowed func(i, j int) bool) *tensor.Matrix {
	l := x.Rows
	hd := cfg.HeadDim()
	mw := sl.Width * hd

	q := tensor.New(l, mw)
	k := tensor.New(l, mw)
	v := tensor.New(l, mw)
	tensor.MatMul(q, x, sl.Q)
	tensor.AddBias(q, sl.QB)
	tensor.MatMul(k, x, sl.K)
	tensor.AddBias(k, sl.KB)
	tensor.MatMul(v, x, sl.V)
	tensor.AddBias(v, sl.VB)

	concat := tensor.New(l, mw)
	scale := float32(1 / math.Sqrt(float64(hd)))
	scores := tensor.New(l, l)
	for h := 0; h < sl.Width; h++ {
		qh := q.ColSlice(h*hd, (h+1)*hd)
		kh := k.ColSlice(h*hd, (h+1)*hd)
		vh := v.ColSlice(h*hd, (h+1)*hd)
		tensor.MatMulBT(scores, qh, kh)
		tensor.Scale(scores, scale)
		if allowed != nil {
			for i := 0; i < l; i++ {
				row := scores.Row(i)
				for j := range row {
					if !allowed(i, j) {
						row[j] = maskedScore
					}
				}
			}
		}
		tensor.SoftmaxRows(scores)
		head := tensor.New(l, hd)
		tensor.MatMul(head, scores, vh)
		concat.SetColSlice(h*hd, head)
	}

	attn := tensor.New(l, cfg.Hidden)
	tensor.MatMul(attn, concat, sl.O)
	tensor.AddBias(attn, sl.OB)
	tensor.Add(attn, attn, x)
	tensor.LayerNormRows(attn, sl.LN1G, sl.LN1B, nil, nil)

	inner := tensor.New(l, sl.Width*cfg.FFNSlice())
	tensor.MatMul(inner, attn, sl.FFN1)
	tensor.AddBias(inner, sl.FFN1B)
	tensor.GELU(inner)
	out := tensor.New(l, cfg.Hidden)
	tensor.MatMul(out, inner, sl.FFN2)
	tensor.AddBias(out, sl.FFN2B)
	tensor.Add(out, out, attn)
	tensor.LayerNormRows(out, sl.LN2G, sl.LN2B, nil, nil)
	return out
}

// CausalForward runs the submodel with a causal (autoregressive)
// attention mask and returns the final hidden states: position i
// attends only to positions ≤ i.
func (sm *Submodel) CausalForward(tokens []int) *tensor.Matrix {
	x := sm.Embed(tokens)
	causal := func(i, j int) bool { return j <= i }
	for _, sl := range sm.Layers {
		x = forwardLayerMasked(sm.Cfg, sl, x, causal)
	}
	return x
}

// NextTokenLogits returns the language-model logits over the
// vocabulary for the position following the sequence, using the
// weight-tied token-embedding head.
func (sm *Submodel) NextTokenLogits(tokens []int) []float32 {
	if len(tokens) == 0 {
		panic("model: NextTokenLogits on empty sequence")
	}
	x := sm.CausalForward(tokens)
	last := tensor.FromSlice(1, sm.Cfg.Hidden, x.Row(x.Rows-1))
	logits := tensor.New(1, sm.Cfg.Vocab)
	tensor.MatMul(logits, last, sm.Parent.Emb.head())
	return logits.Row(0)
}

// Generate greedily decodes `steps` tokens after the prompt, stopping
// early if the sequence reaches MaxSeq. It returns the full sequence
// (prompt + generated).
func (sm *Submodel) Generate(prompt []int, steps int) ([]int, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("model: empty prompt")
	}
	seq := append([]int(nil), prompt...)
	for s := 0; s < steps && len(seq) < sm.Cfg.MaxSeq; s++ {
		logits := sm.NextTokenLogits(seq)
		best := 0
		for i, v := range logits {
			if v > logits[best] {
				best = i
			}
		}
		seq = append(seq, best)
	}
	return seq, nil
}
