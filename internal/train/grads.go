// Package train fine-tunes the tiny transformer models of the real
// path: a hand-rolled backpropagation trainer with Adam, replacing the
// cloud fine-tuning that produced the paper's DynaBERT checkpoints.
//
// The trainer supports DynaBERT-style width elasticity: each training
// example runs through a randomly sampled subset of attention heads
// (and their FFN slices), so trained models degrade gracefully when STI
// executes narrow submodels — the property §4.2 borrows from dynamic
// transformers.
package train

import (
	"math"

	"sti/internal/model"
	"sti/internal/tensor"
)

// layerGrads accumulates gradients for one transformer layer.
type layerGrads struct {
	Q, K, V, O, FFN1, FFN2       *tensor.Matrix
	QB, KB, VB, OB, FFN1B, FFN2B []float32
	LN1G, LN1B, LN2G, LN2B       []float32
}

// Grads accumulates gradients for a whole model.
type Grads struct {
	Cfg      model.Config
	TokenEmb *tensor.Matrix
	PosEmb   *tensor.Matrix
	EmbLNG   []float32
	EmbLNB   []float32
	Layers   []*layerGrads
	Pooler   *tensor.Matrix
	PoolerB  []float32
	Cls      *tensor.Matrix
	ClsB     []float32
}

// NewGrads allocates a zeroed gradient accumulator shaped like w.
func NewGrads(w *model.Weights) *Grads {
	cfg := w.Cfg
	g := &Grads{
		Cfg:      cfg,
		TokenEmb: tensor.New(cfg.Vocab, cfg.Hidden),
		PosEmb:   tensor.New(cfg.MaxSeq, cfg.Hidden),
		EmbLNG:   make([]float32, cfg.Hidden),
		EmbLNB:   make([]float32, cfg.Hidden),
		Pooler:   tensor.New(cfg.Hidden, cfg.Hidden),
		PoolerB:  make([]float32, cfg.Hidden),
		Cls:      tensor.New(cfg.Hidden, cfg.Classes),
		ClsB:     make([]float32, cfg.Classes),
	}
	for l := 0; l < cfg.Layers; l++ {
		g.Layers = append(g.Layers, &layerGrads{
			Q: tensor.New(cfg.Hidden, cfg.Hidden), K: tensor.New(cfg.Hidden, cfg.Hidden),
			V: tensor.New(cfg.Hidden, cfg.Hidden), O: tensor.New(cfg.Hidden, cfg.Hidden),
			FFN1: tensor.New(cfg.Hidden, cfg.FFN), FFN2: tensor.New(cfg.FFN, cfg.Hidden),
			QB: make([]float32, cfg.Hidden), KB: make([]float32, cfg.Hidden),
			VB: make([]float32, cfg.Hidden), OB: make([]float32, cfg.Hidden),
			FFN1B: make([]float32, cfg.FFN), FFN2B: make([]float32, cfg.Hidden),
			LN1G: make([]float32, cfg.Hidden), LN1B: make([]float32, cfg.Hidden),
			LN2G: make([]float32, cfg.Hidden), LN2B: make([]float32, cfg.Hidden),
		})
	}
	return g
}

// Zero clears all accumulated gradients.
func (g *Grads) Zero() {
	for _, p := range g.params(nil) {
		for i := range p.grad {
			p.grad[i] = 0
		}
	}
}

// GlobalNorm returns the L2 norm over all accumulated gradients.
func (g *Grads) GlobalNorm() float64 {
	var ss float64
	for _, p := range g.params(nil) {
		for _, v := range p.grad {
			ss += float64(float64(v) * float64(v))
		}
	}
	return math.Sqrt(ss)
}

// ClipGlobalNorm rescales all gradients so their global L2 norm does
// not exceed max. A no-op when already within bounds.
func (g *Grads) ClipGlobalNorm(max float64) {
	norm := g.GlobalNorm()
	if norm <= max || norm == 0 {
		return
	}
	scale := float32(max / norm)
	for _, p := range g.params(nil) {
		for i := range p.grad {
			p.grad[i] *= scale
		}
	}
}

// paramPair couples a parameter slice with its gradient slice.
type paramPair struct {
	param []float32
	grad  []float32
}

// params enumerates every (parameter, gradient) pair. With w == nil the
// param fields are nil (used by Zero).
func (g *Grads) params(w *model.Weights) []paramPair {
	var out []paramPair
	add := func(p, gr []float32) { out = append(out, paramPair{p, gr}) }
	mat := func(pm, gm *tensor.Matrix) {
		if pm == nil {
			add(nil, gm.Data)
			return
		}
		add(pm.Data, gm.Data)
	}
	if w == nil {
		mat(nil, g.TokenEmb)
		mat(nil, g.PosEmb)
		add(nil, g.EmbLNG)
		add(nil, g.EmbLNB)
		for _, lg := range g.Layers {
			for _, m := range []*tensor.Matrix{lg.Q, lg.K, lg.V, lg.O, lg.FFN1, lg.FFN2} {
				mat(nil, m)
			}
			for _, v := range [][]float32{lg.QB, lg.KB, lg.VB, lg.OB, lg.FFN1B, lg.FFN2B, lg.LN1G, lg.LN1B, lg.LN2G, lg.LN2B} {
				add(nil, v)
			}
		}
		mat(nil, g.Pooler)
		add(nil, g.PoolerB)
		mat(nil, g.Cls)
		add(nil, g.ClsB)
		return out
	}
	mat(w.Emb.Token, g.TokenEmb)
	mat(w.Emb.Position, g.PosEmb)
	add(w.Emb.LNG, g.EmbLNG)
	add(w.Emb.LNB, g.EmbLNB)
	for l, lg := range g.Layers {
		lw := w.Layers[l]
		mat(lw.Q, lg.Q)
		mat(lw.K, lg.K)
		mat(lw.V, lg.V)
		mat(lw.O, lg.O)
		mat(lw.FFN1, lg.FFN1)
		mat(lw.FFN2, lg.FFN2)
		add(lw.QB, lg.QB)
		add(lw.KB, lg.KB)
		add(lw.VB, lg.VB)
		add(lw.OB, lg.OB)
		add(lw.FFN1B, lg.FFN1B)
		add(lw.FFN2B, lg.FFN2B)
		add(lw.LN1G, lg.LN1G)
		add(lw.LN1B, lg.LN1B)
		add(lw.LN2G, lg.LN2G)
		add(lw.LN2B, lg.LN2B)
	}
	mat(w.Pooler, g.Pooler)
	add(w.PoolerB, g.PoolerB)
	mat(w.Cls, g.Cls)
	add(w.ClsB, g.ClsB)
	return out
}
