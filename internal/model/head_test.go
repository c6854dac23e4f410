package model

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"sti/internal/tensor"
)

// matMulBT is the scalar a × bᵀ loop (dst is a.Rows×b.Rows) that the LM
// head and the classify attention scores ran before they moved onto
// tensor.MatMul against a transposed copy: one accumulator per output,
// float32(a·b) summed over ascending k from +0.
func matMulBT(dst, a, b *tensor.Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k, av := range a.Row(i) {
				s += float32(av * b.Row(j)[k])
			}
			dst.Set(i, j, s)
		}
	}
}

// refHeadLogits is the LM head as it was computed before the transposed
// copy existed: x · Tokenᵀ through the scalar matMulBT.
func refHeadLogits(x *tensor.Matrix, emb *Embeddings) *tensor.Matrix {
	logits := tensor.New(x.Rows, emb.Token.Rows)
	matMulBT(logits, x, emb.Token)
	return logits
}

func sameLogitBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logits, want %d", name, len(got), len(want))
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s: logit %d = %v, matMulBT reference %v", name, j, got[j], want[j])
		}
	}
}

// headConfigs are Tiny with a vocabulary that fills the one-row panel's
// 64-column blocks exactly (512) and one that also leaves a 16-column
// strip and a portable tail (530).
func headConfigs() []Config {
	a, b := Tiny(), Tiny()
	b.Vocab = 530
	return []Config{a, b}
}

// decoders returns n decoders over sm, decoder i prefilled with i+1
// tokens, so a step's rows sit at ragged positions.
func decoders(t *testing.T, sm *Submodel, n int) []*Decoder {
	t.Helper()
	decs := make([]*Decoder, n)
	for i := range decs {
		decs[i] = NewDecoder(sm)
		for p := 0; p <= i; p++ {
			if _, err := decs[i].Append(1 + (7*i+3*p)%(sm.Cfg.Vocab-1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return decs
}

// TestStepLogitsMatchesHeadReference checks that the batched decode step's
// head, a MatMul against the transposed copy, equals matMulBT against
// Token bit for bit for every batch width the panels split differently.
func TestStepLogitsMatchesHeadReference(t *testing.T) {
	for _, cfg := range headConfigs() {
		w := NewRandom(cfg, 91)
		sm, err := NewSubmodel(w, cfg.Layers, cfg.Heads)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{1, 2, 3, 5} {
			tokens := make([]int, b)
			for i := range tokens {
				tokens[i] = 1 + (11*i+5)%(cfg.Vocab-1)
			}
			got, err := StepLogits(decoders(t, sm, b), tokens)
			if err != nil {
				t.Fatal(err)
			}
			x, err := StepBatch(decoders(t, sm, b), tokens)
			if err != nil {
				t.Fatal(err)
			}
			want := refHeadLogits(x, w.Emb)
			for i := 0; i < b; i++ {
				sameLogitBits(t, fmt.Sprintf("vocab %d B=%d row %d", cfg.Vocab, b, i), got.Row(i), want.Row(i))
			}
		}
	}
}

// TestNextTokenLogitsMatchesHeadReference is the single-sequence path's
// version of TestStepLogitsMatchesHeadReference.
func TestNextTokenLogitsMatchesHeadReference(t *testing.T) {
	for _, cfg := range headConfigs() {
		w := NewRandom(cfg, 92)
		sm, err := NewSubmodel(w, cfg.Layers, cfg.Heads)
		if err != nil {
			t.Fatal(err)
		}
		tokens := []int{4, 17, 9, 1, 33}
		x := sm.CausalForward(tokens)
		last := tensor.FromSlice(1, cfg.Hidden, x.Row(x.Rows-1))
		want := refHeadLogits(last, w.Emb)
		sameLogitBits(t, fmt.Sprintf("vocab %d", cfg.Vocab), sm.NextTokenLogits(tokens), want.Row(0))
	}
}

// TestHeadConcurrentFirstDecode makes the first decode on one fresh
// resident set from 8 goroutines at once: they must build one head between
// them and all read the same logits.
func TestHeadConcurrentFirstDecode(t *testing.T) {
	cfg := Tiny()
	w := NewRandom(cfg, 93)
	sm, err := NewSubmodel(w, cfg.Layers, cfg.Heads)
	if err != nil {
		t.Fatal(err)
	}
	if w.Emb.tokenT != nil {
		t.Fatal("a fresh resident set already holds a head")
	}
	const n = 8
	heads := make([]*tensor.Matrix, n)
	logits := make([][]float32, n)
	errs := make([]error, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			logits[g], errs[g] = NewDecoder(sm).NextLogits(5)
			heads[g] = w.Emb.head()
		}(g)
	}
	start.Done()
	wg.Wait()
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if heads[g] != heads[0] {
			t.Fatalf("goroutine %d got head %p, goroutine 0 got %p", g, heads[g], heads[0])
		}
		sameLogitBits(t, fmt.Sprintf("goroutine %d", g), logits[g], logits[0])
	}
	if heads[0].Rows != cfg.Hidden || heads[0].Cols != cfg.Vocab {
		t.Fatalf("head is %v, want %dx%d", heads[0], cfg.Hidden, cfg.Vocab)
	}
}
