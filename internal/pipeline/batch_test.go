package pipeline

import (
	"testing"
	"time"
)

// batchTestInputs returns varied-length sequences with mixed masks —
// what a serving batch actually looks like.
func batchTestInputs() []BatchInput {
	padded := []int{1, 4, 4, 4, 4, 4, 2, 0}
	mask := make([]bool, len(padded))
	for i := range mask {
		mask[i] = padded[i] != 0
	}
	return []BatchInput{
		{Tokens: []int{1, 9, 8, 7, 2}},
		{Tokens: []int{1, 5, 2}},
		{Tokens: padded, Mask: mask},
		{Tokens: []int{1, 2}},
		{Tokens: []int{1, 3, 3, 2}},
		{Tokens: []int{1, 6, 7, 8, 9, 2}},
		{Tokens: []int{1, 1, 1, 2}},
		{Tokens: []int{1, 9, 2}},
	}
}

// TestExecuteBatchByteIdenticalToSequential is the batched-path
// acceptance check: B=8 ExecuteBatch returns logits byte-identical to
// 8 one-input ExecuteBatch calls.
func TestExecuteBatchByteIdenticalToSequential(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 0)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	inputs := batchTestInputs()

	single := make([][]float32, len(inputs))
	for i, in := range inputs {
		logits, _, err := eng.ExecuteBatch(ctxbg, p, []BatchInput{in})
		if err != nil {
			t.Fatal(err)
		}
		single[i] = logits[0]
	}
	batched, bs, err := eng.ExecuteBatch(ctxbg, p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Batch != len(inputs) {
		t.Fatalf("batch %d, want %d", bs.Batch, len(inputs))
	}
	for i := range inputs {
		if len(batched[i]) != len(single[i]) {
			t.Fatalf("seq %d: %d logits, want %d", i, len(batched[i]), len(single[i]))
		}
		for c := range single[i] {
			if batched[i][c] != single[i][c] {
				t.Fatalf("seq %d logit %d: batched %v != single %v", i, c, batched[i][c], single[i][c])
			}
		}
	}
}

// TestExecuteBatchAmortizesIO pins the tentpole's point: one batched
// execution performs each layer's shard IO exactly once, so per-request
// bytes are 1/B of sequential execution.
func TestExecuteBatchAmortizesIO(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 0) // zero cache: every layer streams
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	inputs := batchTestInputs()
	b := int64(len(inputs))

	_, singleStats, err := eng.ExecuteBatch(ctxbg, p, inputs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if singleStats.BytesRead == 0 {
		t.Fatal("cold single execution read nothing")
	}
	_, bs, err := eng.ExecuteBatch(ctxbg, p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if bs.BytesRead != singleStats.BytesRead {
		t.Fatalf("batch stream read %d bytes, single read %d; the batch must stream each layer exactly once",
			bs.BytesRead, singleStats.BytesRead)
	}
	perRequest := bs.BytesRead / int64(bs.Batch)
	if want := singleStats.BytesRead / b; perRequest != want {
		t.Fatalf("amortized %d bytes/request, want %d (1/%d of sequential)", perRequest, want, b)
	}
}

func TestExecuteBatchRejectsEmptyAndOversized(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 0)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	if _, _, err := eng.ExecuteBatch(ctxbg, p, nil); err == nil {
		t.Fatal("empty batch must error")
	}
	// An empty sequence inside a batch would silently read its
	// neighbor's logits from the stacked activations.
	withEmpty := append(batchTestInputs(), BatchInput{})
	if _, _, err := eng.ExecuteBatch(ctxbg, p, withEmpty); err == nil {
		t.Fatal("empty batch input must error")
	}
	p.Depth = st.Man.Config.Layers + 1
	if _, _, err := eng.ExecuteBatch(ctxbg, p, batchTestInputs()); err == nil {
		t.Fatal("oversized plan must error")
	}
}

// TestWarmAfterShrinkRespectsBudget is the regression for the put()
// budget bug: Warm with a plan whose preload set exceeds a freshly
// shrunk budget must not overfill the buffer.
func TestWarmAfterShrinkRespectsBudget(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 64<<10)
	if err := eng.Warm(p); err != nil {
		t.Fatal(err)
	}
	full := eng.CacheBytes()
	if full == 0 {
		t.Fatal("plan preloaded nothing; raise the budget")
	}
	shrunk := full / 2
	eng.SetCacheBudget(shrunk)
	// Re-warm the old (now oversized) plan: the buffer must stay within
	// the shrunk budget, holding the bottom-most prefix that fits.
	if err := eng.Warm(p); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheBytes(); got > shrunk {
		t.Fatalf("warm overfilled the buffer: %d bytes > budget %d", got, shrunk)
	}
	// Bottom layers win the tight buffer: nothing cached above a gap.
	eng.mu.Lock()
	cachedLayers := map[int]bool{}
	for v := range eng.cache {
		cachedLayers[v.Layer] = true
	}
	eng.mu.Unlock()
	maxCached := -1
	for l := range cachedLayers {
		if l > maxCached {
			maxCached = l
		}
	}
	if maxCached > 0 && !cachedLayers[0] {
		t.Fatalf("layer %d cached while layer 0 evicted; bottom layers must win", maxCached)
	}
}

// TestPutRefusesOverBudgetPayload pins put's refusal path: a payload
// larger than the whole budget is never inserted.
func TestPutRefusesOverBudgetPayload(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 16)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 64<<10)
	if err := eng.Warm(p); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheBytes(); got > 16 {
		t.Fatalf("cache %d bytes exceeds 16-byte budget", got)
	}
	_ = st
}
