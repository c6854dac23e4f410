package pipeline

import (
	"context"
	"math"
	"testing"
	"time"

	"sti/internal/device"
	"sti/internal/importance"
	"sti/internal/model"
	"sti/internal/planner"
	"sti/internal/quant"
	"sti/internal/store"
)

// ctxbg is the background context test call sites that don't exercise
// cancellation pass to Execute/ExecuteBatch.
var ctxbg = context.Background()

// buildTinyEngine preprocesses a tiny random model into a temp store
// and returns an engine plus the original weights.
func buildTinyEngine(t *testing.T, cacheBudget int64) (*Engine, *model.Weights, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	cfg := model.Tiny()
	w := model.NewRandom(cfg, 99)
	if _, err := store.Preprocess(dir, w, []int{2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(st, cacheBudget)
	if err != nil {
		t.Fatal(err)
	}
	return eng, w, st
}

// tinyPlan builds a plan against the tiny store's manifest.
func tinyPlan(t *testing.T, st *store.Store, target time.Duration, preload int64) (*planner.Plan, planner.Request) {
	t.Helper()
	cfg := st.Man.Config
	imp := importance.Synthetic("SST-2", cfg.Layers, cfg.Heads)
	req := planner.NewRequest(device.Odroid(), cfg, imp, ManifestSizer{Man: st.Man}, target, preload)
	req.Bitwidths = []int{2, 4, 6}
	p, err := req.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return p, req
}

func TestEngineExecutesPlanMatchesDirectAssembly(t *testing.T) {
	eng, w, st := buildTinyEngine(t, 0)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	tokens := []int{1, 2, 3, 4, 5, 6, 7, 8}

	resp, err := eng.Run(ctxbg, p, Request{Tokens: tokens})
	if err != nil {
		t.Fatal(err)
	}
	logits, stats := resp.Logits, resp.Stats
	if len(logits) != w.Cfg.Classes {
		t.Fatalf("logits %v", logits)
	}
	if stats.BytesRead == 0 || stats.CacheHits != 0 {
		t.Fatalf("cold run stats %+v", stats)
	}

	// Reference: assemble the same submodel directly from the original
	// weights with identical quantization.
	ref := &model.Submodel{Cfg: w.Cfg, Parent: w}
	for l := 0; l < p.Depth; l++ {
		shards := make([]*model.ShardWeights, p.Width)
		for j, s := range p.Slices[l] {
			flat := w.ExtractShard(l, s).Flatten()
			if b := p.Bits[l][j]; b != 32 {
				flat = quant.Quantize(flat, b).Dequantize()
			}
			sw, err := model.UnflattenShard(w.Cfg, l, s, flat)
			if err != nil {
				t.Fatal(err)
			}
			shards[j] = sw
		}
		sl, err := model.AssembleSubLayer(w.Cfg, w.Layers[l], shards)
		if err != nil {
			t.Fatal(err)
		}
		ref.Layers = append(ref.Layers, sl)
	}
	want := ref.Logits(tokens, nil)
	for i := range want {
		if math.Abs(float64(logits[i]-want[i])) > 1e-4 {
			t.Fatalf("engine logits %v != direct %v", logits, want)
		}
	}
}

func TestEngineWarmProducesCacheHits(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 64<<10)
	preloadCount := 0
	for l := range p.Preloaded {
		for _, pre := range p.Preloaded[l] {
			if pre {
				preloadCount++
			}
		}
	}
	if preloadCount == 0 {
		t.Fatal("test plan has no preloads; raise the budget")
	}
	if err := eng.Warm(p); err != nil {
		t.Fatal(err)
	}
	if eng.CacheBytes() == 0 {
		t.Fatal("warm loaded nothing")
	}
	resp, err := eng.Run(ctxbg, p, Request{Tokens: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if stats := resp.Stats; stats.CacheHits != preloadCount {
		t.Fatalf("cache hits %d, want %d preloaded shards", stats.CacheHits, preloadCount)
	}
}

func TestEngineRetainServesBackToBack(t *testing.T) {
	// §3.3 "a few back-to-back executions": after Retain, a repeated
	// execution reads fewer bytes.
	eng, _, st := buildTinyEngine(t, 256<<10)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	coldResp, err := eng.Run(ctxbg, p, Request{Tokens: []int{5, 4, 3}})
	if err != nil {
		t.Fatal(err)
	}
	cold := coldResp.Stats
	if err := eng.Retain(p); err != nil {
		t.Fatal(err)
	}
	if eng.CacheBytes() == 0 || eng.CacheBytes() > eng.Budget() {
		t.Fatalf("cache %d outside (0, %d]", eng.CacheBytes(), eng.Budget())
	}
	warmResp, err := eng.Run(ctxbg, p, Request{Tokens: []int{5, 4, 3}})
	if err != nil {
		t.Fatal(err)
	}
	warm := warmResp.Stats
	if warm.BytesRead >= cold.BytesRead {
		t.Fatalf("retained run read %d bytes, cold read %d", warm.BytesRead, cold.BytesRead)
	}
	if warm.CacheHits == 0 {
		t.Fatal("retained run hit nothing")
	}
}

func TestEngineRetainKeepsBottomLayers(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 200<<10)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	if err := eng.Retain(p); err != nil {
		t.Fatal(err)
	}
	// Everything cached must be from the bottom of the plan: find the
	// deepest cached layer and check all plan shards below it are
	// cached too.
	cachedLayers := map[int]int{}
	eng.mu.Lock()
	for v := range eng.cache {
		cachedLayers[v.Layer]++
	}
	eng.mu.Unlock()
	if len(cachedLayers) == 0 {
		t.Fatal("nothing retained")
	}
	if _, ok := cachedLayers[0]; !ok {
		t.Fatal("layer 0 not retained; eviction must keep bottom layers")
	}
	for l := 1; l < p.Depth; l++ {
		if cachedLayers[l] > 0 && cachedLayers[l-1] != p.Width {
			t.Fatalf("layer %d partially cached while layer %d cached", l-1, l)
		}
	}
}

func TestEngineDeterministicLogits(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 0)
	p, _ := tinyPlan(t, st, 150*time.Millisecond, 0)
	ra, err := eng.Run(ctxbg, p, Request{Tokens: []int{9, 8, 7, 6}})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := eng.Run(ctxbg, p, Request{Tokens: []int{9, 8, 7, 6}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra.Logits, rb.Logits
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pipelined execution not deterministic")
		}
	}
}

func TestEngineRejectsOversizedPlan(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 0)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	p.Depth = st.Man.Config.Layers + 5
	if _, err := eng.Run(ctxbg, p, Request{Tokens: []int{1}}); err == nil {
		t.Fatal("expected depth rejection")
	}
}

func TestEngineSetCacheBudgetEvictsTopDown(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	if err := eng.Retain(p); err != nil {
		t.Fatal(err)
	}
	full := eng.CacheBytes()
	if full == 0 {
		t.Fatal("nothing retained")
	}
	// Shrink to half: must stay under budget and keep layer 0 entries.
	eng.SetCacheBudget(full / 2)
	if eng.CacheBytes() > full/2 {
		t.Fatalf("cache %d exceeds new budget %d", eng.CacheBytes(), full/2)
	}
	eng.mu.Lock()
	hasL0, maxLayer := false, 0
	for v := range eng.cache {
		if v.Layer == 0 {
			hasL0 = true
		}
		if v.Layer > maxLayer {
			maxLayer = v.Layer
		}
	}
	eng.mu.Unlock()
	if !hasL0 {
		t.Fatal("shrinking evicted layer 0 before top layers")
	}
	// Shrink to zero: everything goes.
	eng.SetCacheBudget(0)
	if eng.CacheBytes() != 0 {
		t.Fatalf("cache %d after zero budget", eng.CacheBytes())
	}
	// Growing the budget never evicts.
	eng.SetCacheBudget(1 << 20)
	if eng.CacheBytes() != 0 {
		t.Fatal("growing budget must not load anything")
	}
	_ = maxLayer
}
