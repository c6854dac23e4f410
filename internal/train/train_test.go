package train

import (
	"math"
	"math/rand"
	"testing"

	"sti/internal/glue"
	"sti/internal/model"
)

func microConfig() model.Config {
	return model.Config{Layers: 2, Heads: 2, Hidden: 8, FFN: 16, Vocab: 24, MaxSeq: 6, Classes: 2}
}

// TestGradientsMatchFiniteDifferences is the correctness anchor for the
// whole trainer: analytic gradients must match central finite
// differences of the loss for a sample of parameters in every
// parameter group.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	cfg := microConfig()
	w := model.NewRandom(cfg, 3)
	tokens := []int{1, 5, 9, 13, 2, 0}
	mask := []bool{true, true, true, true, true, false}
	active := []bool{true, true}
	label := 1

	g := NewGrads(w)
	c := forward(w, tokens, mask, active)
	backward(w, c, label, g)

	loss := func() float64 {
		return forward(w, tokens, mask, active).Loss(label)
	}

	pairs := g.params(w)
	rng := rand.New(rand.NewSource(4))
	const h = 1e-2
	checked := 0
	for gi, p := range pairs {
		if len(p.param) == 0 {
			continue
		}
		// Sample up to 4 coordinates per parameter group.
		for trial := 0; trial < 4; trial++ {
			j := rng.Intn(len(p.param))
			orig := p.param[j]
			p.param[j] = orig + h
			up := loss()
			p.param[j] = orig - h
			down := loss()
			p.param[j] = orig
			fd := (up - down) / (2 * h)
			got := float64(p.grad[j])
			tol := 1e-2*math.Max(math.Abs(fd), math.Abs(got)) + 2e-3
			if math.Abs(fd-got) > tol {
				t.Errorf("group %d coord %d: analytic %.6f vs finite-diff %.6f", gi, j, got, fd)
			}
			checked++
		}
	}
	if checked < 40 {
		t.Fatalf("only %d coordinates checked", checked)
	}
}

func TestGradientsWithDroppedHeads(t *testing.T) {
	// Width-elastic training: gradients must stay consistent when a
	// head is dropped, and the dropped head's Q/K/V columns must get
	// zero gradient.
	cfg := microConfig()
	w := model.NewRandom(cfg, 5)
	tokens := []int{2, 3, 4, 5}
	active := []bool{true, false}
	g := NewGrads(w)
	c := forward(w, tokens, nil, active)
	backward(w, c, 0, g)

	hd := cfg.HeadDim()
	for r := 0; r < cfg.Hidden; r++ {
		for col := hd; col < 2*hd; col++ {
			if g.Layers[0].Q.At(r, col) != 0 {
				t.Fatalf("dropped head received Q gradient at (%d,%d)", r, col)
			}
		}
	}
	// Spot-check finite differences still agree on an active-head param.
	loss := func() float64 { return forward(w, tokens, nil, active).Loss(0) }
	p := w.Layers[0].Q
	const h = 1e-2
	orig := p.At(0, 0)
	p.Set(0, 0, orig+h)
	up := loss()
	p.Set(0, 0, orig-h)
	down := loss()
	p.Set(0, 0, orig)
	fd := (up - down) / (2 * h)
	got := float64(g.Layers[0].Q.At(0, 0))
	if math.Abs(fd-got) > 1e-2*math.Max(math.Abs(fd), 1)+2e-3 {
		t.Fatalf("dropped-head run: analytic %.6f vs fd %.6f", got, fd)
	}
}

func TestLossDecreasesOverTraining(t *testing.T) {
	cfg := model.Config{Layers: 2, Heads: 2, Hidden: 16, FFN: 32, Vocab: 128, MaxSeq: 16, Classes: 2}
	w := model.NewRandom(cfg, 11)
	ds, err := glue.Generate("SST-2", 128, 64, cfg.Vocab, cfg.MaxSeq, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := avgLoss(w, ds)
	if _, err := Run(w, ds, Options{Epochs: 3, BatchSize: 8, LR: 2e-3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	after := avgLoss(w, ds)
	if after >= before {
		t.Fatalf("loss did not decrease: %.3f -> %.3f", before, after)
	}
}

func avgLoss(w *model.Weights, ds *glue.Dataset) float64 {
	full := make([]bool, w.Cfg.Heads)
	for i := range full {
		full[i] = true
	}
	var total float64
	for _, ex := range ds.Dev {
		tokens, mask := ds.Encode(ex)
		total += forward(w, tokens, mask, full).Loss(ex.Label)
	}
	return total / float64(len(ds.Dev))
}

func TestTrainedModelBeatsChance(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := model.Config{Layers: 2, Heads: 4, Hidden: 32, FFN: 64, Vocab: 256, MaxSeq: 20, Classes: 2}
	w := model.NewRandom(cfg, 21)
	ds, err := glue.Generate("SST-2", 512, 128, cfg.Vocab, cfg.MaxSeq, 3)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Run(w, ds, Options{Epochs: 5, BatchSize: 8, LR: 1.5e-3, Seed: 4, WidthElastic: true})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 80 {
		t.Fatalf("trained accuracy %.1f%%, want ≥80%%", acc)
	}
	// Width elasticity: a half-width submodel should stay well above
	// chance.
	if half := Evaluate(w, ds, cfg.Layers, cfg.Heads/2); half < 65 {
		t.Fatalf("half-width accuracy %.1f%%, elastic training should keep it usable", half)
	}
}

func TestEvaluateAgainstMajorityBaseline(t *testing.T) {
	cfg := microConfig()
	cfg.Vocab = 128
	cfg.MaxSeq = 16
	w := model.NewRandom(cfg, 31)
	ds, err := glue.Generate("RTE", 16, 64, cfg.Vocab, cfg.MaxSeq, 5)
	if err != nil {
		t.Fatal(err)
	}
	acc := Evaluate(w, ds, cfg.Layers, cfg.Heads)
	// Untrained model ≈ chance; also sanity-check the majority floor.
	if acc < 20 || acc > 85 {
		t.Fatalf("untrained accuracy %.1f%% implausible", acc)
	}
	if mb := ds.MajorityBaseline(); mb < 40 || mb > 75 {
		t.Fatalf("majority baseline %.1f%% implausible for balanced labels", mb)
	}
}

func TestAdamStepMovesParameters(t *testing.T) {
	cfg := microConfig()
	w := model.NewRandom(cfg, 41)
	g := NewGrads(w)
	c := forward(w, []int{1, 2, 3}, nil, []bool{true, true})
	backward(w, c, 0, g)
	before := w.Cls.Clone()
	NewAdam(1e-2).Step(w, g, 1)
	if w.Cls.Equal(before) {
		t.Fatal("Adam step did not move classifier weights")
	}
}

func TestSampleActiveAlwaysNonEmpty(t *testing.T) {
	cfg := model.Tiny()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		active := sampleActive(cfg, rng, true)
		count := 0
		for _, a := range active {
			if a {
				count++
			}
		}
		if count == 0 {
			t.Fatal("sampled an empty head set")
		}
	}
}

func TestClipGlobalNorm(t *testing.T) {
	cfg := microConfig()
	w := model.NewRandom(cfg, 51)
	g := NewGrads(w)
	c := forward(w, []int{1, 2, 3}, nil, []bool{true, true})
	backward(w, c, 0, g)
	norm := g.GlobalNorm()
	if norm <= 0 {
		t.Fatal("zero gradient norm after backward")
	}
	// Clipping above the norm is a no-op.
	g.ClipGlobalNorm(norm * 2)
	if math.Abs(g.GlobalNorm()-norm) > 1e-6*norm {
		t.Fatal("clip above norm changed gradients")
	}
	// Clipping below rescales to the cap.
	g.ClipGlobalNorm(norm / 4)
	if got := g.GlobalNorm(); math.Abs(got-norm/4) > 1e-4*norm {
		t.Fatalf("clipped norm %v, want %v", got, norm/4)
	}
}

func TestTrainingWithClippingStillLearns(t *testing.T) {
	cfg := model.Config{Layers: 2, Heads: 2, Hidden: 16, FFN: 32, Vocab: 128, MaxSeq: 16, Classes: 2}
	w := model.NewRandom(cfg, 52)
	ds, err := glue.Generate("SST-2", 128, 64, cfg.Vocab, cfg.MaxSeq, 6)
	if err != nil {
		t.Fatal(err)
	}
	before := avgLoss(w, ds)
	if _, err := Run(w, ds, Options{Epochs: 3, BatchSize: 8, LR: 2e-3, Seed: 2, ClipNorm: 1.0}); err != nil {
		t.Fatal(err)
	}
	if after := avgLoss(w, ds); after >= before {
		t.Fatalf("clipped training did not learn: %.3f -> %.3f", before, after)
	}
}

// BenchmarkTrainStep times one bench-6x6 example (64 positions, every
// head active) through forward and backward: the trainer's cost per
// example, before the optimizer.
func BenchmarkTrainStep(b *testing.B) {
	cfg := model.Config{Layers: 6, Heads: 6, Hidden: 192, FFN: 768, Vocab: 2048, MaxSeq: 64, Classes: 2}
	w := model.NewRandom(cfg, 1)
	ds, err := glue.Generate("SST-2", 1, 0, cfg.Vocab, cfg.MaxSeq, 1)
	if err != nil {
		b.Fatal(err)
	}
	ex := ds.Train[0]
	tokens, mask := ds.Encode(ex)
	active := make([]bool, cfg.Heads)
	for i := range active {
		active[i] = true
	}
	g := NewGrads(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backward(w, forward(w, tokens, mask, active), ex.Label, g)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
