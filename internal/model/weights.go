package model

import (
	"math"
	"math/rand"
	"sync"

	"sti/internal/tensor"
)

// LayerWeights holds one full-width transformer layer. Weight matrices
// use the (input × output) convention, so the forward pass is x·W.
type LayerWeights struct {
	Q, K, V *tensor.Matrix // d×d
	O       *tensor.Matrix // d×d (concat-heads → hidden projection)
	FFN1    *tensor.Matrix // d×dff
	FFN2    *tensor.Matrix // dff×d

	// Miscellaneous per-layer parameters. These are NOT part of any
	// shard: STI keeps biases and layernorm parameters resident in
	// memory at full fidelity because they are tiny (§6).
	QB, KB, VB, OB []float32 // biases, length d
	FFN1B          []float32 // length dff
	FFN2B          []float32 // length d
	LN1G, LN1B     []float32 // post-attention layernorm, length d
	LN2G, LN2B     []float32 // post-FFN layernorm, length d
}

// Embeddings holds the input embedding tables and their layernorm,
// which stay resident like the other miscellaneous parameters.
type Embeddings struct {
	Token    *tensor.Matrix // vocab×d
	Position *tensor.Matrix // maxseq×d
	LNG, LNB []float32      // embedding layernorm, length d

	// tokenT is Tokenᵀ (d×vocab), the weight-tied LM head laid out for
	// tensor.MatMul. It is built on the first decode, so classify-only
	// models never hold it, and every Submodel and replica over these
	// embeddings shares it. Being unexported, it is not part of the gob
	// store format. Token must not change once it is built.
	headOnce sync.Once
	tokenT   *tensor.Matrix
}

// head returns the LM head Tokenᵀ, building it on first use, so the
// logits x·Tokenᵀ are a MatMul on the AVX2 panels. Each logit is a
// scalar dot product's float32(x·t) summed over ascending k from +0.
func (e *Embeddings) head() *tensor.Matrix {
	e.headOnce.Do(func() { e.tokenT = e.Token.Transpose() })
	return e.tokenT
}

// Weights is a complete model: embeddings, N full layers, and the
// classification head (CLS pooler + linear classifier).
type Weights struct {
	Cfg    Config
	Emb    *Embeddings
	Layers []*LayerWeights

	Pooler  *tensor.Matrix // d×d
	PoolerB []float32
	Cls     *tensor.Matrix // d×classes
	ClsB    []float32
}

// NewRandom builds a model with BERT-style truncated-normal-ish
// initialization (std 0.02 scaled to dimension) from the given seed.
// Deterministic for a given (cfg, seed).
func NewRandom(cfg Config, seed int64) *Weights {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	std := 0.02
	// For tiny hidden sizes a relatively larger init keeps activations
	// from vanishing; use 1/sqrt(d) capped at 0.08.
	if s := 1 / math.Sqrt(float64(cfg.Hidden)); s > std {
		std = math.Min(s, 0.08)
	}
	w := &Weights{Cfg: cfg}
	w.Emb = &Embeddings{
		Token:    tensor.NewRand(cfg.Vocab, cfg.Hidden, std, rng),
		Position: tensor.NewRand(cfg.MaxSeq, cfg.Hidden, std, rng),
		LNG:      ones(cfg.Hidden),
		LNB:      make([]float32, cfg.Hidden),
	}
	for l := 0; l < cfg.Layers; l++ {
		w.Layers = append(w.Layers, &LayerWeights{
			Q:     tensor.NewRand(cfg.Hidden, cfg.Hidden, std, rng),
			K:     tensor.NewRand(cfg.Hidden, cfg.Hidden, std, rng),
			V:     tensor.NewRand(cfg.Hidden, cfg.Hidden, std, rng),
			O:     tensor.NewRand(cfg.Hidden, cfg.Hidden, std, rng),
			FFN1:  tensor.NewRand(cfg.Hidden, cfg.FFN, std, rng),
			FFN2:  tensor.NewRand(cfg.FFN, cfg.Hidden, std, rng),
			QB:    make([]float32, cfg.Hidden),
			KB:    make([]float32, cfg.Hidden),
			VB:    make([]float32, cfg.Hidden),
			OB:    make([]float32, cfg.Hidden),
			FFN1B: make([]float32, cfg.FFN),
			FFN2B: make([]float32, cfg.Hidden),
			LN1G:  ones(cfg.Hidden),
			LN1B:  make([]float32, cfg.Hidden),
			LN2G:  ones(cfg.Hidden),
			LN2B:  make([]float32, cfg.Hidden),
		})
	}
	w.Pooler = tensor.NewRand(cfg.Hidden, cfg.Hidden, std, rng)
	w.PoolerB = make([]float32, cfg.Hidden)
	w.Cls = tensor.NewRand(cfg.Hidden, cfg.Classes, std, rng)
	w.ClsB = make([]float32, cfg.Classes)
	return w
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// ResidentBytes returns the memory cost of the always-resident
// parameters (embeddings, biases, layernorms, classification head) in
// bytes. The paper keeps these in memory and excludes them from shard
// accounting.
func (w *Weights) ResidentBytes() int {
	n := len(w.Emb.Token.Data) + len(w.Emb.Position.Data) + len(w.Emb.LNG) + len(w.Emb.LNB)
	for _, l := range w.Layers {
		n += len(l.QB) + len(l.KB) + len(l.VB) + len(l.OB) +
			len(l.FFN1B) + len(l.FFN2B) +
			len(l.LN1G) + len(l.LN1B) + len(l.LN2G) + len(l.LN2B)
	}
	n += len(w.Pooler.Data) + len(w.PoolerB) + len(w.Cls.Data) + len(w.ClsB)
	return 4 * n
}
