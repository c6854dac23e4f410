package model_test

import (
	"math"
	"testing"

	"sti/internal/model"
	"sti/internal/store"
)

// TestStoredResidentHasNoHeadUntilDecode writes a resident set whose head
// is built, reloads it, and checks that the head was not stored: the
// reloaded set builds its own on its first decode, with the same logits.
func TestStoredResidentHasNoHeadUntilDecode(t *testing.T) {
	cfg := model.Tiny()
	w := model.NewRandom(cfg, 94)
	sm, err := model.NewSubmodel(w, cfg.Layers, cfg.Heads)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.NewDecoder(sm).NextLogits(7)
	if err != nil {
		t.Fatal(err)
	}
	if !model.HasHead(w.Emb) {
		t.Fatal("a decode did not build the head")
	}

	dir := t.TempDir()
	if _, err := store.Preprocess(dir, w, []int{4}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.LoadResident()
	if err != nil {
		t.Fatal(err)
	}
	if model.HasHead(res.Emb) {
		t.Fatal("a reloaded resident set holds a head before any decode")
	}

	// Decode with the reloaded embeddings over the original layers.
	res.Layers = w.Layers
	rsm, err := model.NewSubmodel(res, cfg.Layers, cfg.Heads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.NewDecoder(rsm).NextLogits(7)
	if err != nil {
		t.Fatal(err)
	}
	if !model.HasHead(res.Emb) {
		t.Fatal("the reloaded set's first decode did not build its head")
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("logit %d: reloaded %v, original %v", j, got[j], want[j])
		}
	}
}
