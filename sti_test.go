package sti_test

import (
	"context"
	"testing"
	"time"

	"sti"
)

// TestEndToEndWorkflow walks the full public API: build → train →
// preprocess → load → profile importance → plan → warm → infer →
// retain → infer again.
func TestEndToEndWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training run")
	}
	dir := t.TempDir()
	cfg := sti.TinyConfig()
	w := sti.NewRandomModel(cfg, 1001)

	opts := sti.DefaultTrainOptions()
	opts.Epochs = 3
	ds, acc, err := sti.TrainModel(w, "SST-2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 75 {
		t.Fatalf("trained accuracy %.1f too low", acc)
	}

	if _, err := sti.Preprocess(dir, w, nil); err != nil {
		t.Fatal(err)
	}

	sys, err := sti.Load(dir, sti.Odroid(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sys.Imp = sti.ProfileImportance(w, ds, 2, 32)

	plan, err := sys.Plan(200*time.Millisecond, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Depth < 1 || plan.Width < 1 {
		t.Fatalf("degenerate plan %v", plan)
	}
	if err := sys.Warm(plan); err != nil {
		t.Fatal(err)
	}

	tokens, mask := ds.Encode(ds.Dev[0])
	ctx := context.Background()
	resp, err := sys.Run(ctx, plan, sti.Request{Task: sti.TaskClassify, Tokens: tokens, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Logits) != cfg.Classes {
		t.Fatalf("logits %v", resp.Logits)
	}
	if resp.Stats.Total <= 0 {
		t.Fatal("no stats recorded")
	}

	// Back-to-back engagement: retain, then re-run with cache hits.
	if err := sys.Retain(plan); err != nil {
		t.Fatal(err)
	}
	resp2, err := sys.Run(ctx, plan, sti.Request{Task: sti.TaskClassify, Tokens: tokens, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Stats.CacheHits == 0 {
		t.Fatal("retained execution produced no cache hits")
	}

	// The pipelined engine must agree with direct evaluation: measure
	// dev accuracy through the engine and require it above chance.
	correct := 0
	for _, ex := range ds.Dev {
		toks, m := ds.Encode(ex)
		r, err := sys.Run(ctx, plan, sti.Request{Task: sti.TaskClassify, Tokens: toks, Mask: m})
		if err != nil {
			t.Fatal(err)
		}
		lg := r.Logits
		pred := 0
		if lg[1] > lg[0] {
			pred = 1
		}
		if pred == ex.Label {
			correct++
		}
	}
	devAcc := 100 * float64(correct) / float64(len(ds.Dev))
	if devAcc < 65 {
		t.Fatalf("pipelined dev accuracy %.1f%%; quantized submodel should stay usable", devAcc)
	}
	t.Logf("trained %.1f%%, pipelined submodel %dx%d %.1f%%", acc, plan.Depth, plan.Width, devAcc)
}

func TestPublicConstructors(t *testing.T) {
	if sti.Odroid().Name == "" || sti.Jetson().Name == "" {
		t.Fatal("device constructors broken")
	}
	if sti.BERTBaseConfig().Layers != 12 || sti.TinyConfig().Layers == 0 {
		t.Fatal("config constructors broken")
	}
	if _, err := sti.GenerateDataset("SST-2", sti.TinyConfig(), 4, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sti.GenerateDataset("nope", sti.TinyConfig(), 4, 2, 1); err == nil {
		t.Fatal("unknown task must error")
	}
}

func TestLoadMissingStore(t *testing.T) {
	if _, err := sti.Load(t.TempDir()+"/missing", sti.Odroid(), 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestPlanAblationKnobs(t *testing.T) {
	dir := t.TempDir()
	w := sti.NewRandomModel(sti.TinyConfig(), 5)
	if _, err := sti.Preprocess(dir, w, []int{2, 6}); err != nil {
		t.Fatal(err)
	}
	sys, err := sti.Load(dir, sti.Jetson(), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := sys.Request(150*time.Millisecond, 0)
	req.TwoPass = false
	req.PreferDeeper = false
	if _, err := req.Plan(); err != nil {
		t.Fatal(err)
	}
}
