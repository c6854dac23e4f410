package model

import (
	"fmt"

	"sti/internal/tensor"
)

// Generative decoding — the paper's declared future work (§3.4: "STI's
// key ideas apply to generative models such as GPT-2 ... we consider
// them as future work"). The same elastic sharding applies unchanged:
// a causal submodel is assembled from exactly the same vertical shards;
// only the attention mask and the output head differ. The language-model
// head ties weights with the token embedding (as GPT-2 does), so no
// additional shards are needed.

// CausalForward runs the submodel with a causal (autoregressive)
// attention mask and returns the final hidden states: position i
// attends only to positions ≤ i.
func (sm *Submodel) CausalForward(tokens []int) *tensor.Matrix {
	x := sm.Embed(tokens)
	for _, sl := range sm.Layers {
		x = forwardLayer(sm.Cfg, sl, x, []int{len(tokens)}, [][]bool{nil}, true)
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
