package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineRunGenerateMatchesGenerateCached pins the acceptance claim:
// the engine's generate path is byte-identical to
// model.Submodel.GenerateCached over the same materialized submodel —
// the elastic stream changes where the weights come from, never what
// they decode.
func TestEngineRunGenerateMatchesGenerateCached(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)

	sm, streamStats, err := eng.Materialize(ctxbg, p)
	if err != nil {
		t.Fatal(err)
	}
	if streamStats.BytesRead == 0 {
		t.Fatal("materialize streamed nothing")
	}
	prompt := []int{1, 17, 23}
	const steps = 8
	want, err := sm.GenerateCached(prompt, steps)
	if err != nil {
		t.Fatal(err)
	}

	var streamed []int
	resp, err := eng.Run(ctxbg, p, Request{
		Task: TaskGenerate, Tokens: prompt, MaxNewTokens: steps,
		OnToken: func(step, token int) { streamed = append(streamed, token) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.GeneratedTokens) != len(want) {
		t.Fatalf("generated %v, want %v", resp.GeneratedTokens, want)
	}
	for i := range want {
		if resp.GeneratedTokens[i] != want[i] {
			t.Fatalf("token %d: engine %d != GenerateCached %d (%v vs %v)",
				i, resp.GeneratedTokens[i], want[i], resp.GeneratedTokens, want)
		}
	}
	if len(streamed) != resp.Gen.NewTokens {
		t.Fatalf("OnToken saw %d tokens, stats say %d", len(streamed), resp.Gen.NewTokens)
	}
	for i, tok := range streamed {
		if tok != want[len(prompt)+i] {
			t.Fatalf("streamed token %d = %d, want %d", i, tok, want[len(prompt)+i])
		}
	}
	if resp.Gen.PromptTokens != len(prompt) || resp.Gen.NewTokens != steps {
		t.Fatalf("gen stats %+v, want %d prompt + %d new", resp.Gen, len(prompt), steps)
	}
	// One stream amortized across all steps: the generate stream reads
	// exactly what one classify execution reads, not once per token.
	if resp.Stats.BytesRead != streamStats.BytesRead {
		t.Fatalf("generate stream read %d bytes, one materialization reads %d",
			resp.Stats.BytesRead, streamStats.BytesRead)
	}
	if got := len(resp.Gen.StepCompute); got != len(prompt)+steps {
		t.Fatalf("%d step timings, want %d", got, len(prompt)+steps)
	}
}

// TestEngineRunGenerateChargesKV: a generate through Engine.Run holds
// its paged KV against the engine's one grant, like every fleet
// stream. A full preload buffer yields top-layer shards to the decode
// pages, the pages are returned when Run finishes, and an engine with
// no grant at all refuses to decode.
func TestEngineRunGenerateChargesKV(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 64<<10)
	if err := eng.Warm(p); err != nil {
		t.Fatal(err)
	}
	before := eng.CacheBytes()
	if before == 0 {
		t.Fatal("warm cached nothing")
	}
	eng.SetCacheBudget(before) // the preload set fills the grant exactly
	req := Request{Task: TaskGenerate, Tokens: []int{1, 2}, MaxNewTokens: 4}
	if _, err := eng.Run(ctxbg, p, req); err != nil {
		t.Fatal(err)
	}
	after, kv := eng.CacheBytes(), eng.KVBytes()
	if after >= before {
		t.Fatalf("preload %d bytes after decode, want < %d: KV pages displaced nothing", after, before)
	}
	if kv != 0 {
		t.Fatalf("%d KV bytes still charged after Run returned", kv)
	}
	if after+kv > eng.Budget() {
		t.Fatalf("preload %d + KV %d exceeds the grant %d", after, kv, eng.Budget())
	}

	zero, _, st0 := buildTinyEngine(t, 0)
	p0, _ := tinyPlan(t, st0, 100*time.Millisecond, 0)
	if _, err := zero.Run(ctxbg, p0, req); !errors.Is(err, ErrKVBudget) {
		t.Fatalf("zero-budget generate: err %v, want ErrKVBudget", err)
	}
}

// TestEngineRunDispatchesTasks drives both tasks through the unified
// Run entry point.
func TestEngineRunDispatchesTasks(t *testing.T) {
	eng, w, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)

	tokens := []int{1, 2, 3, 4}
	resp, err := eng.Run(ctxbg, p, Request{Task: TaskClassify, Tokens: tokens})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Logits) != w.Cfg.Classes || resp.Gen != nil || resp.GeneratedTokens != nil {
		t.Fatalf("classify response %+v", resp)
	}
	want, _, err := eng.ExecuteBatch(ctxbg, p, []BatchInput{{Tokens: tokens}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if resp.Logits[i] != want[0][i] {
			t.Fatalf("Run logits %v != ExecuteBatch logits %v", resp.Logits, want[0])
		}
	}

	gresp, err := eng.Run(ctxbg, p, Request{Task: TaskGenerate, Tokens: []int{1, 5}, MaxNewTokens: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gresp.Gen == nil || len(gresp.GeneratedTokens) != 5 {
		t.Fatalf("generate response %+v", gresp)
	}
}

func TestRequestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  Request
		ok   bool
	}{
		{"classify ok", Request{Task: TaskClassify, Tokens: []int{1}}, true},
		{"classify empty", Request{Task: TaskClassify}, false},
		{"classify mask mismatch", Request{Task: TaskClassify, Tokens: []int{1, 2}, Mask: []bool{true}}, false},
		{"generate ok", Request{Task: TaskGenerate, Tokens: []int{1}, MaxNewTokens: 4}, true},
		{"generate empty prompt", Request{Task: TaskGenerate, MaxNewTokens: 4}, false},
		{"generate negative steps", Request{Task: TaskGenerate, Tokens: []int{1}, MaxNewTokens: -1}, false},
		{"unknown task", Request{Task: Task(42), Tokens: []int{1}}, false},
	} {
		if err := tc.req.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestExecuteCancelStopsIOWithinOneLayer is the acceptance test for
// mid-flight cancellation: a context cancelled while the shard stream
// is running stops flash IO within one layer — later layers are never
// read.
func TestExecuteCancelStopsIOWithinOneLayer(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 0)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	if p.Depth < 3 {
		t.Fatalf("plan depth %d too shallow to observe a mid-stream abort", p.Depth)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Run can return on its own ctx check before the IO goroutine
	// exits, so the hook's record is read under a lock after settling.
	var mu sync.Mutex
	var ioLayers []int
	eng.ioHook = func(layer int) {
		mu.Lock()
		ioLayers = append(ioLayers, layer)
		mu.Unlock()
		if layer == 1 {
			cancel() // cancelled while layer 1's IO job is about to start
		}
	}
	_, err := eng.Run(ctx, p, Request{Tokens: []int{1, 2, 3}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	// The IO worker saw layer 0 (read) and layer 1 (cancel observed);
	// layers 2..Depth-1 must never start their IO jobs.
	seen := func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), ioLayers...)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(seen()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // would-be layer 2 IO had ample time to run
	if got := seen(); len(got) != 2 || got[1] != 1 {
		t.Fatalf("IO jobs ran for layers %v after cancel at layer 1, want [0 1]", got)
	}

	// Cancellation before execution never touches the stream at all.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	eng.ioHook = nil
	if _, err := eng.Run(pre, p, Request{Tokens: []int{1, 2, 3}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled execute: err %v, want context.Canceled", err)
	}
}

// TestEngineRunGenerateCancelStopsShardStream: cancelling a generate
// while its plan is still materializing closes the one-stream batcher,
// which aborts the cold shard stream instead of reading the rest of
// the plan for a caller that has gone.
func TestEngineRunGenerateCancelStopsShardStream(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	if p.Depth < 3 {
		t.Fatalf("plan depth %d too shallow to observe a mid-stream abort", p.Depth)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ioJobs atomic.Int32
	eng.ioHook = func(layer int) {
		ioJobs.Add(1)
		if layer == 1 {
			cancel()
			time.Sleep(50 * time.Millisecond) // the cancel closes the batcher meanwhile
		}
	}
	resp, err := eng.Run(ctx, p, Request{Task: TaskGenerate, Tokens: []int{1, 2}, MaxNewTokens: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if resp != nil {
		t.Fatalf("cancelled mid-materialization, yet it ran to completion: %+v", resp)
	}
	time.Sleep(10 * time.Millisecond) // would-be later layers had ample time to start
	if n := int(ioJobs.Load()); n >= p.Depth {
		t.Fatalf("%d of %d layers' IO jobs started after cancel at layer 1", n, p.Depth)
	}
}

// TestEngineRunGenerateUsesPreloadCache: a warmed plan serves the
// generate stream from the preload buffer exactly like classify.
func TestEngineRunGenerateUsesPreloadCache(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 64<<10)
	if err := eng.Warm(p); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Run(ctxbg, p, Request{Task: TaskGenerate, Tokens: []int{1, 2}, MaxNewTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.CacheHits == 0 {
		t.Fatal("warmed generate saw no cache hits")
	}
}
