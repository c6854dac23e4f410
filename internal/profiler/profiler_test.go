package profiler

import (
	"testing"
	"time"

	"sti/internal/device"
	"sti/internal/glue"
	"sti/internal/model"
	"sti/internal/store"
	"sti/internal/train"
)

func buildTinyStore(t *testing.T) (*store.Store, *model.Weights) {
	t.Helper()
	dir := t.TempDir()
	cfg := model.Tiny()
	w := model.NewRandom(cfg, 55)
	if _, err := store.Preprocess(dir, w, []int{2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, w
}

func TestMeasureDeviceProducesUsableProfile(t *testing.T) {
	st, _ := buildTinyStore(t)
	dev, err := MeasureDevice(st, 16)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Bandwidth <= 0 {
		t.Fatalf("bandwidth %v", dev.Bandwidth)
	}
	if dev.TComp(16, 1, 1.0) <= 0 {
		t.Fatal("compute model degenerate")
	}
	if dev.TComp(16, st.Man.Config.Heads, 1.0) < dev.TComp(16, 1, 1.0) {
		t.Fatal("compute not increasing with width")
	}
	if dev.TIO(1<<20) <= 0 {
		t.Fatal("IO model degenerate")
	}
}

// TestFitComputeNeverDecreasesWithWidth: the fixed + incremental fit
// passes through both timings when the full layer is the slower one,
// and floors the increment at 0 when the narrow layer timed slower, so
// the fitted compute never falls as width grows.
func TestFitComputeNeverDecreasesWithWidth(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		t1, tM      time.Duration
		heads       int
		fixed, incr time.Duration
	}{
		{t1: 2 * ms, tM: 8 * ms, heads: 4, fixed: 0, incr: 2 * ms},
		{t1: 3 * ms, tM: 6 * ms, heads: 4, fixed: 2 * ms, incr: ms},
		{t1: 5 * ms, tM: 4 * ms, heads: 4, fixed: 5 * ms, incr: 0}, // t1 > tM
		{t1: 5 * ms, tM: 5 * ms, heads: 1, fixed: 5 * ms, incr: 0}, // one head: nothing to fit
	} {
		fixed, incr := fitCompute(c.t1, c.tM, c.heads)
		if fixed != c.fixed || incr != c.incr {
			t.Errorf("fitCompute(%v, %v, %d) = %v, %v, want %v, %v", c.t1, c.tM, c.heads, fixed, incr, c.fixed, c.incr)
		}
		dev := device.Profile{ComputeFixed: fixed, ComputeIncr: incr, WidthExp: 1, RefSeqLen: 16, SeqLinear: 0.7, SeqQuad: 0.3}
		if dev.TComp(16, c.heads, 1.0) < dev.TComp(16, 1, 1.0) {
			t.Errorf("fitCompute(%v, %v, %d): compute falls with width", c.t1, c.tM, c.heads)
		}
	}
}

func TestRealEvaluatorFullFidelityMatchesEvaluate(t *testing.T) {
	cfg := model.Config{Layers: 2, Heads: 2, Hidden: 16, FFN: 32, Vocab: 128, MaxSeq: 16, Classes: 2}
	w := model.NewRandom(cfg, 7)
	ds, err := glue.Generate("SST-2", 8, 32, cfg.Vocab, cfg.MaxSeq, 2)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewRealEvaluator(w, ds)
	bits := make([][]int, cfg.Layers)
	for l := range bits {
		bits[l] = []int{32, 32}
	}
	got := eval.AccuracyWithBits(bits)
	want := train.Evaluate(w, ds, cfg.Layers, cfg.Heads)
	if got != want {
		t.Fatalf("full-fidelity evaluator %.1f != direct evaluation %.1f", got, want)
	}
}

func TestProfileImportanceOnTrainedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := model.Config{Layers: 2, Heads: 2, Hidden: 16, FFN: 32, Vocab: 128, MaxSeq: 16, Classes: 2}
	w := model.NewRandom(cfg, 17)
	ds, err := glue.Generate("SST-2", 256, 64, cfg.Vocab, cfg.MaxSeq, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Run(w, ds, train.Options{Epochs: 3, BatchSize: 8, LR: 2e-3, Seed: 4, WidthElastic: true}); err != nil {
		t.Fatal(err)
	}
	// Tiny synthetic models are more quantization-robust than real
	// BERT; profile against a 1-bit floor so shard differences show.
	tbl := ProfileImportance(w, ds, 1, 32)
	if tbl.Layers != cfg.Layers || tbl.Slices != cfg.Heads {
		t.Fatalf("table shape %dx%d", tbl.Layers, tbl.Slices)
	}
	// Profiled scores are real accuracies: within [0, 100] and not all
	// identical (some shard must matter more than another).
	allSame := true
	first := tbl.Score[0][0]
	for _, row := range tbl.Score {
		for _, v := range row {
			if v < 0 || v > 100 {
				t.Fatalf("profiled accuracy %v out of range", v)
			}
			if v != first {
				allSame = false
			}
		}
	}
	if allSame {
		t.Fatal("importance profiling found no differences between shards")
	}
}
