package train

import (
	"fmt"
	"math"
	"math/rand"

	"sti/internal/glue"
	"sti/internal/model"
)

// Adam is a standard Adam optimizer over a model's parameters.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	step                  int
	m, v                  [][]float64
}

// NewAdam returns an optimizer with conventional defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update of accumulated gradients (divided by
// batchSize) to the weights.
func (a *Adam) Step(w *model.Weights, g *Grads, batchSize int) {
	pairs := g.params(w)
	if a.m == nil {
		a.m = make([][]float64, len(pairs))
		a.v = make([][]float64, len(pairs))
		for i, p := range pairs {
			a.m[i] = make([]float64, len(p.grad))
			a.v[i] = make([]float64, len(p.grad))
		}
	}
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	inv := 1 / float64(batchSize)
	for i, p := range pairs {
		m, v := a.m[i], a.v[i]
		for j := range p.grad {
			grad := float64(p.grad[j]) * inv
			m[j] = float64(a.Beta1*m[j]) + float64((1-a.Beta1)*grad)
			v[j] = float64(a.Beta2*v[j]) + float64((1-a.Beta2)*grad*grad)
			update := a.LR * (m[j] / bc1) / (math.Sqrt(v[j]/bc2) + a.Eps)
			p.param[j] -= float32(update)
		}
	}
}

// Options configures a training run.
type Options struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	// WidthElastic trains each example on a random head subset
	// (DynaBERT-style), so narrow submodels stay accurate.
	WidthElastic bool
	// ClipNorm caps the global L2 norm of each batch's gradient before
	// the optimizer step (0 = no clipping). Standard BERT fine-tuning
	// uses 1.0.
	ClipNorm float64
	// Logf receives one progress line per epoch (loss and dev
	// accuracy); nil discards them.
	Logf func(format string, args ...any)
}

// DefaultOptions returns settings that train the Tiny config to high
// accuracy on the synthetic tasks in a few seconds.
func DefaultOptions() Options {
	return Options{Epochs: 6, BatchSize: 8, LR: 1e-3, Seed: 7, WidthElastic: true}
}

// sampleActive samples the active-head mask for one example: full width most
// of the time, a uniformly drawn narrower width otherwise.
func sampleActive(cfg model.Config, rng *rand.Rand, elastic bool) []bool {
	active := make([]bool, cfg.Heads)
	for i := range active {
		active[i] = true
	}
	if !elastic || rng.Float64() < 0.5 {
		return active
	}
	m := 1 + rng.Intn(cfg.Heads) // 1..M heads
	perm := rng.Perm(cfg.Heads)
	for i := range active {
		active[i] = false
	}
	for _, h := range perm[:m] {
		active[h] = true
	}
	return active
}

// Run fine-tunes w on the dataset and returns the final dev accuracy
// (percent, full-width model).
func Run(w *model.Weights, ds *glue.Dataset, opts Options) (float64, error) {
	cfg := w.Cfg
	if ds.Tok.Vocab > cfg.Vocab || ds.Tok.MaxSeq > cfg.MaxSeq {
		return 0, fmt.Errorf("train: dataset (vocab %d, seq %d) exceeds model (%d, %d)",
			ds.Tok.Vocab, ds.Tok.MaxSeq, cfg.Vocab, cfg.MaxSeq)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	g := NewGrads(w)
	opt := NewAdam(opts.LR)
	order := rng.Perm(len(ds.Train))
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var loss float64
		inBatch := 0
		for _, idx := range order {
			ex := ds.Train[idx]
			tokens, mask := ds.Encode(ex)
			active := sampleActive(cfg, rng, opts.WidthElastic)
			c := forward(w, tokens, mask, active)
			loss += c.Loss(ex.Label)
			backward(w, c, ex.Label, g)
			inBatch++
			if inBatch == opts.BatchSize {
				if opts.ClipNorm > 0 {
					g.ClipGlobalNorm(opts.ClipNorm * float64(inBatch))
				}
				opt.Step(w, g, inBatch)
				g.Zero()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			if opts.ClipNorm > 0 {
				g.ClipGlobalNorm(opts.ClipNorm * float64(inBatch))
			}
			opt.Step(w, g, inBatch)
			g.Zero()
		}
		acc := Evaluate(w, ds, cfg.Layers, cfg.Heads)
		logf("epoch %d: loss %.3f dev acc %.1f%%", epoch, loss/float64(len(order)), acc)
	}
	return Evaluate(w, ds, cfg.Layers, cfg.Heads), nil
}

// Evaluate measures dev accuracy (percent) of the n×m submodel of w.
func Evaluate(w *model.Weights, ds *glue.Dataset, n, m int) float64 {
	sm, err := model.NewSubmodel(w, n, m)
	if err != nil {
		panic(err)
	}
	return EvaluateSubmodel(sm, ds)
}

// EvaluateSubmodel measures dev accuracy of an assembled submodel.
func EvaluateSubmodel(sm *model.Submodel, ds *glue.Dataset) float64 {
	if len(ds.Dev) == 0 {
		return 0
	}
	correct := 0
	for _, ex := range ds.Dev {
		tokens, mask := ds.Encode(ex)
		if sm.Predict(tokens, mask) == ex.Label {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(ds.Dev))
}
