// Generate: the paper's declared future work (§3.4) — applying STI's
// elastic sharding to generative, GPT-style decoding, now a first-class
// task of the v2 API. A task-typed Request drives the very same planned
// pipeline that serves classification: the planner picks a submodel,
// preload set and per-shard bitwidths for the latency target, the
// engine streams and decompresses the plan's shards exactly once, and
// paged-KV decode steps amortize that one elastic IO pass across every
// generated token, streaming each one through Request.OnToken. The
// decode runs on the same continuous-batching step loop a served fleet
// uses, so its KV pages are charged to the 1 MiB preload grant below.
//
//	go run ./examples/generate
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"sti"
	"sti/internal/model"
)

func main() {
	dir, err := os.MkdirTemp("", "sti-generate-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := sti.TinyConfig()
	w := sti.NewRandomModel(cfg, 99)
	if _, err := sti.Preprocess(dir, w, nil); err != nil {
		log.Fatal(err)
	}
	sys, err := sti.Load(dir, sti.Odroid(), 1<<20)
	if err != nil {
		log.Fatal(err)
	}

	// Plan and warm exactly like classification: generation rides the
	// same two-stage planner and preload buffer.
	plan, err := sys.Plan(200*time.Millisecond, 64<<10)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Warm(plan); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %s\n", plan)

	prompt := []int{1, 17, 23}
	fmt.Printf("prompt %v, streaming: ", prompt)
	resp, err := sys.Run(context.Background(), plan, sti.Request{
		Task:         sti.TaskGenerate,
		Tokens:       prompt,
		MaxNewTokens: 8,
		OnToken:      func(step, token int) { fmt.Printf("%d ", token) },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsequence: %v\n", resp.GeneratedTokens)
	fmt.Printf("stream:   read %d KB once, %d cache hits — amortized over %d decode steps\n",
		resp.Gen.Stream.BytesRead>>10, resp.Gen.Stream.CacheHits,
		resp.Gen.PromptTokens+resp.Gen.NewTokens)

	// The engine's logit path is byte-identical to GenerateCached on the
	// same submodel: assemble the plan's exact shard versions by hand and
	// decode without the pipeline.
	ref, err := assembleFromPlan(sys, w, plan)
	if err != nil {
		log.Fatal(err)
	}
	want, err := ref.GenerateCached(prompt, 8)
	if err != nil {
		log.Fatal(err)
	}
	if len(resp.GeneratedTokens) != len(want) {
		log.Fatalf("engine %v != direct %v", resp.GeneratedTokens, want)
	}
	for i := range want {
		if resp.GeneratedTokens[i] != want[i] {
			log.Fatalf("engine %v != direct %v", resp.GeneratedTokens, want)
		}
	}
	fmt.Println("verified: pipeline decode == GenerateCached on the plan's shards")

	// Elasticity: tighter targets plan narrower/shallower submodels —
	// and every one of them decodes.
	fmt.Println("\nelasticity across latency targets:")
	for _, target := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond} {
		p, err := sys.Plan(target, 64<<10)
		if err != nil {
			log.Fatal(err)
		}
		r, err := sys.Run(context.Background(), p, sti.Request{
			Task: sti.TaskGenerate, Tokens: prompt, MaxNewTokens: 8,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  T=%-6v -> %dx%-2d submodel: %v\n", target, p.Depth, p.Width, r.GeneratedTokens)
	}
	fmt.Println("\nfidelity/width change the continuation, exactly as the")
	fmt.Println("classification path behaves under STI's planner.")
}

// assembleFromPlan builds the plan's exact submodel (same slices, same
// fidelity versions) directly from the on-disk store, bypassing the
// pipeline.
func assembleFromPlan(sys *sti.System, w *sti.Model, p *sti.Plan) (*model.Submodel, error) {
	cfg := w.Cfg
	sm := &model.Submodel{Cfg: cfg, Parent: w}
	for l := 0; l < p.Depth; l++ {
		shards := make([]*model.ShardWeights, len(p.Slices[l]))
		for j, s := range p.Slices[l] {
			payload, err := sys.Store.ReadShard(l, s, p.Bits[l][j])
			if err != nil {
				return nil, err
			}
			sw, err := model.UnflattenShard(cfg, l, s, payload.Weights())
			if err != nil {
				return nil, err
			}
			shards[j] = sw
		}
		sl, err := model.AssembleSubLayer(cfg, w.Layers[l], shards)
		if err != nil {
			return nil, err
		}
		sm.Layers = append(sm.Layers, sl)
	}
	return sm, nil
}
