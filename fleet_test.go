package sti_test

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"sti"
)

func fleetSystem(t *testing.T, seed int64) *sti.System {
	t.Helper()
	dir := t.TempDir()
	w := sti.NewRandomModel(sti.TinyConfig(), seed)
	if _, err := sti.Preprocess(dir, w, []int{2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	sys, err := sti.Load(dir, sti.Odroid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// classify serves one classify request on the named model.
func classify(f *sti.Fleet, name string, tokens []int) (*sti.Response, error) {
	return f.Serve(context.Background(), name, sti.Request{Task: sti.TaskClassify, Tokens: tokens})
}

func TestFleetSplitsBudgetByWeight(t *testing.T) {
	f := sti.NewFleet(300 << 10)
	if err := f.Add("sentiment", fleetSystem(t, 1), 200*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("nextword", fleetSystem(t, 2), 150*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	a, _ := f.Entry("sentiment")
	b, _ := f.Entry("nextword")
	if a.Budget != 200<<10 || b.Budget != 100<<10 {
		t.Fatalf("budget split %d/%d, want 2:1 of 300KB", a.Budget, b.Budget)
	}
	if a.Plan == nil || b.Plan == nil {
		t.Fatal("models not planned")
	}
	if a.Plan.PreloadUsed > a.Budget || b.Plan.PreloadUsed > b.Budget {
		t.Fatal("plans exceed granted budgets")
	}
}

func TestFleetInferBothModels(t *testing.T) {
	f := sti.NewFleet(200 << 10)
	if err := f.Add("m1", fleetSystem(t, 3), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("m2", fleetSystem(t, 4), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	for _, name := range f.Names() {
		resp, err := classify(f, name, []int{1, 5, 6, 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(resp.Logits) != sti.TinyConfig().Classes || resp.Stats == nil {
			t.Fatalf("%s: bad inference result", name)
		}
	}
	if _, err := classify(f, "absent", []int{1}); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestFleetMemoryPressureShrink(t *testing.T) {
	f := sti.NewFleet(400 << 10)
	if err := f.Add("m", fleetSystem(t, 5), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	before := f.PreloadBytes()
	if before == 0 {
		t.Fatal("nothing warmed at the large budget")
	}
	// OS pressure: shrink well below current holdings; held bytes must
	// drop under the new budget.
	newBudget := before / 2
	if err := f.SetBudget(newBudget); err != nil {
		t.Fatal(err)
	}
	if f.PreloadBytes() > newBudget {
		t.Fatalf("fleet holds %d bytes over the reduced budget %d", f.PreloadBytes(), newBudget)
	}
	// Inference still works with the smaller plan.
	if _, err := classify(f, "m", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestFleetValidation(t *testing.T) {
	f := sti.NewFleet(1 << 20)
	sys := fleetSystem(t, 6)
	if err := f.Add("dup", sys, time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("dup", sys, time.Second, 1); err == nil {
		t.Fatal("duplicate name must error")
	}
	if err := f.Add("bad", sys, time.Second, 0); err == nil {
		t.Fatal("zero weight must error")
	}
	if _, err := classify(f, "dup", []int{1}); err == nil {
		t.Fatal("inference before Replan must error")
	}
	f.Remove("dup")
	if _, ok := f.Entry("dup"); ok {
		t.Fatal("Remove did not remove")
	}
}

func TestFleetRemoveThenReplanRedistributes(t *testing.T) {
	f := sti.NewFleet(200 << 10)
	if err := f.Add("keep", fleetSystem(t, 7), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("drop", fleetSystem(t, 8), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	before, _ := f.Entry("keep")
	if before.Budget != 100<<10 {
		t.Fatalf("keep granted %d, want half of 200KB", before.Budget)
	}
	f.Remove("drop")
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	after, _ := f.Entry("keep")
	if after.Budget != 200<<10 {
		t.Fatalf("keep granted %d after Remove, want the whole 200KB", after.Budget)
	}
	if _, err := classify(f, "drop", []int{1}); err == nil {
		t.Fatal("removed model must not serve")
	}
	if _, err := classify(f, "keep", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestFleetTarget(t *testing.T) {
	f := sti.NewFleet(100 << 10)
	if err := f.Add("m", fleetSystem(t, 9), 150*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if target, ok := f.Target("m"); !ok || target != 150*time.Millisecond {
		t.Fatalf("Target = %v, %v", target, ok)
	}
	if _, ok := f.Target("absent"); ok {
		t.Fatal("unknown model must not have a target")
	}
}

func TestFleetShrinkThenGrowRewarm(t *testing.T) {
	f := sti.NewFleet(400 << 10)
	if err := f.Add("m", fleetSystem(t, 10), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	large := f.PreloadBytes()
	if err := f.SetBudget(large / 4); err != nil {
		t.Fatal(err)
	}
	shrunk := f.PreloadBytes()
	if shrunk > large/4 {
		t.Fatalf("holds %d over the shrunk budget %d", shrunk, large/4)
	}
	// Growing back re-warms toward the original working set.
	if err := f.SetBudget(400 << 10); err != nil {
		t.Fatal(err)
	}
	if regrown := f.PreloadBytes(); regrown <= shrunk {
		t.Fatalf("budget growth did not re-warm: %d <= %d", regrown, shrunk)
	}
	if _, err := classify(f, "m", []int{3, 2, 1}); err != nil {
		t.Fatal(err)
	}
}

// TestFleetReplanFailureIsAtomic is the regression for the partial-
// commit bug: when planning one model fails mid-replan, models that
// were already processed must keep their previous plans and budgets —
// not a mix of new grants that no longer sums to the fleet budget.
func TestFleetReplanFailureIsAtomic(t *testing.T) {
	f := sti.NewFleet(200 << 10)
	// "alpha" sorts before "zz-bad", so the buggy in-place loop commits
	// alpha's new half-budget grant before zz-bad's planning fails.
	if err := f.Add("alpha", fleetSystem(t, 20), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	before, _ := f.Entry("alpha")
	if before.Budget != 200<<10 || before.Plan == nil {
		t.Fatalf("alpha not planned at full budget: %+v", before)
	}
	// A model whose target can never be planned (non-positive).
	if err := f.Add("zz-bad", fleetSystem(t, 21), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err == nil {
		t.Fatal("replanning an unplannable model must fail")
	}
	// A budget change whose replan fails keeps the previous budget, so
	// Budget() still agrees with the grants the entries kept.
	if err := f.SetBudget(100 << 10); err == nil {
		t.Fatal("SetBudget replanning an unplannable model must fail")
	}
	if got := f.Budget(); got != 200<<10 {
		t.Fatalf("failed SetBudget left Budget() at %d, want %d", got, 200<<10)
	}
	after, _ := f.Entry("alpha")
	if after.Budget != before.Budget {
		t.Fatalf("failed replan changed alpha's budget: %d -> %d", before.Budget, after.Budget)
	}
	if after.Plan != before.Plan {
		t.Fatalf("failed replan swapped alpha's plan: %p -> %p", before.Plan, after.Plan)
	}
	// The fleet still serves on the committed plan.
	if _, err := classify(f, "alpha", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Dropping the bad model makes replanning whole again.
	f.Remove("zz-bad")
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetInferBatchMatchesInfer drives the batched path through the
// fleet: per-input logits must be byte-identical to sequential Serves,
// a Serve must equal its one-element ServeBatch (logits, tier and
// stream bytes), and the shared stream's per-request IO must shrink
// with batch size.
func TestFleetInferBatchMatchesInfer(t *testing.T) {
	f := sti.NewFleet(0) // zero preload: every execution streams all IO
	if err := f.Add("m", fleetSystem(t, 22), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	inputs := []sti.Request{
		{Task: sti.TaskClassify, Tokens: []int{1, 9, 8, 7, 2}},
		{Task: sti.TaskClassify, Tokens: []int{1, 5, 2}},
		{Task: sti.TaskClassify, Tokens: []int{1, 2}},
		{Task: sti.TaskClassify, Tokens: []int{1, 3, 3, 3, 2}},
	}
	var singleBytes int64
	single := make([][]float32, len(inputs))
	for i, in := range inputs {
		resp, err := classify(f, "m", in.Tokens)
		if err != nil {
			t.Fatal(err)
		}
		single[i] = resp.Logits
		singleBytes += resp.Stats.BytesRead

		one, _, err := f.ServeBatch(context.Background(), "m", []sti.Request{in})
		if err != nil {
			t.Fatal(err)
		}
		for c := range resp.Logits {
			if math.Float32bits(one[0].Logits[c]) != math.Float32bits(resp.Logits[c]) {
				t.Fatalf("input %d logit %d: one-element ServeBatch %v != Serve %v", i, c, one[0].Logits[c], resp.Logits[c])
			}
		}
		if one[0].Tier == nil || resp.Tier == nil || *one[0].Tier != *resp.Tier {
			t.Fatalf("input %d: one-element ServeBatch tier %+v != Serve tier %+v", i, one[0].Tier, resp.Tier)
		}
		if one[0].Stats.BytesRead != resp.Stats.BytesRead {
			t.Fatalf("input %d: one-element ServeBatch read %d bytes, Serve read %d", i, one[0].Stats.BytesRead, resp.Stats.BytesRead)
		}
	}
	batched, bs, err := f.ServeBatch(context.Background(), "m", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Batch != len(inputs) {
		t.Fatalf("batch %d, want %d", bs.Batch, len(inputs))
	}
	for i := range inputs {
		for c := range single[i] {
			if batched[i].Logits[c] != single[i][c] {
				t.Fatalf("input %d logit %d: batched %v != single %v", i, c, batched[i].Logits[c], single[i][c])
			}
		}
	}
	if bs.BytesRead*int64(len(inputs)) != singleBytes {
		t.Fatalf("batch read %d bytes for %d inputs; sequential read %d — the stream must run once",
			bs.BytesRead, len(inputs), singleBytes)
	}
	if _, _, err := f.ServeBatch(context.Background(), "absent", inputs); err == nil {
		t.Fatal("unknown model must error")
	}
}

// TestFleetEmptyMaskSharesBatch puts an input with an empty mask (all
// positions valid) and a maskless input in one ServeBatch: both must
// return the maskless input's logits bit for bit, and the empty mask
// must not fail the batch it shares.
func TestFleetEmptyMaskSharesBatch(t *testing.T) {
	f := sti.NewFleet(0)
	if err := f.Add("m", fleetSystem(t, 22), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	tokens := []int{1, 5, 6, 2}
	want, err := classify(f, "m", tokens)
	if err != nil {
		t.Fatal(err)
	}
	got, bs, err := f.ServeBatch(context.Background(), "m", []sti.Request{
		{Task: sti.TaskClassify, Tokens: tokens, Mask: []bool{}},
		{Task: sti.TaskClassify, Tokens: tokens},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Batch != 2 {
		t.Fatalf("batch %d, want 2", bs.Batch)
	}
	for i, resp := range got {
		if len(resp.Logits) != len(want.Logits) {
			t.Fatalf("input %d: %d logits, want %d", i, len(resp.Logits), len(want.Logits))
		}
		for c := range want.Logits {
			if math.Float32bits(resp.Logits[c]) != math.Float32bits(want.Logits[c]) {
				t.Fatalf("input %d logit %d: %v, want the maskless %v", i, c, resp.Logits[c], want.Logits[c])
			}
		}
	}
}

// TestFleetRemoveReleasesPreloadAndReplans is the regression for the
// stale-removal bug: Remove used to delete the entry but leave the
// removed engine's preload shards warm and the siblings' grants stale
// until someone happened to call Replan. Remove must release the
// removed engine's cached bytes and rebalance immediately, so
// PreloadBytes matches the surviving grants the moment it returns.
func TestFleetRemoveReleasesPreloadAndReplans(t *testing.T) {
	f := sti.NewFleet(200 << 10)
	keep, drop := fleetSystem(t, 30), fleetSystem(t, 31)
	if err := f.Add("keep", keep, 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("drop", drop, 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	if drop.Engine.CacheBytes() == 0 {
		t.Fatal("test premise broken: dropped model warmed nothing")
	}

	if err := f.Remove("drop"); err != nil {
		t.Fatal(err)
	}
	// The removed engine holds nothing.
	if got := drop.Engine.CacheBytes(); got != 0 {
		t.Fatalf("removed engine still holds %d preload bytes", got)
	}
	// The survivor was replanned under the whole budget, without an
	// explicit Replan call.
	e, ok := f.Entry("keep")
	if !ok || e.Budget != 200<<10 {
		t.Fatalf("survivor grant %d, want the whole 200KB", e.Budget)
	}
	if e.Plan == nil || e.Plan.PreloadUsed > e.Budget {
		t.Fatalf("survivor plan %+v inconsistent with grant %d", e.Plan, e.Budget)
	}
	// PreloadBytes now reflects exactly the new grants: only the
	// survivor's engine holds bytes, within its grant.
	if got := f.PreloadBytes(); got != keep.Engine.CacheBytes() || got > e.Budget {
		t.Fatalf("fleet holds %d bytes after removal; survivor holds %d under grant %d",
			got, keep.Engine.CacheBytes(), e.Budget)
	}
	// The survivor's warm set is the union of its tier ladder's
	// preloads: at least the default tier's set, never past the grant.
	if got := keep.Engine.CacheBytes(); got < e.Plan.PreloadUsed || got > e.Budget {
		t.Fatalf("survivor warmed %d bytes; default tier preloads %d under grant %d",
			got, e.Plan.PreloadUsed, e.Budget)
	}
	// Removing an unknown name stays a no-op.
	if err := f.Remove("absent"); err != nil {
		t.Fatal(err)
	}
}

// TestFleetServeTasks drives both tasks through the fleet's unified
// Serve entry point: classify matches the engine's one-input
// ExecuteBatch on the model's committed plan byte for byte, and
// generate decodes deterministically.
func TestFleetServeTasks(t *testing.T) {
	f := sti.NewFleet(100 << 10)
	if err := f.Add("m", fleetSystem(t, 32), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	tokens := []int{1, 5, 6, 2}
	resp, err := f.Serve(context.Background(), "m", sti.Request{Task: sti.TaskClassify, Tokens: tokens})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := f.Entry("m")
	want, _, err := e.System.Engine.ExecuteBatch(context.Background(), e.Plan, []sti.BatchInput{{Tokens: tokens}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if resp.Logits[i] != want[0][i] {
			t.Fatalf("Serve logits %v != ExecuteBatch logits %v", resp.Logits, want[0])
		}
	}

	var streamed []int
	gresp, err := f.Serve(context.Background(), "m", sti.Request{
		Task: sti.TaskGenerate, Tokens: []int{1, 9}, MaxNewTokens: 4,
		OnToken: func(step, token int) { streamed = append(streamed, token) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if gresp.Gen == nil || gresp.Gen.NewTokens != 4 || len(gresp.GeneratedTokens) != 6 {
		t.Fatalf("generate response %+v", gresp)
	}
	if len(streamed) != 4 {
		t.Fatalf("OnToken streamed %d tokens, want 4", len(streamed))
	}
	// Generate on an unplanned or unknown model errors like classify.
	if _, err := f.Serve(context.Background(), "absent", sti.Request{Task: sti.TaskGenerate, Tokens: []int{1}}); err == nil {
		t.Fatal("unknown model must error")
	}
	// ServeBatch refuses generate requests — decodes are stateful and
	// run singly.
	if _, _, err := f.ServeBatch(context.Background(), "m", []sti.Request{
		{Task: sti.TaskGenerate, Tokens: []int{1}},
	}); err == nil {
		t.Fatal("ServeBatch must reject generate requests")
	}
}

// TestFleetConcurrentInferAndReplan races parallel inference on two
// models against budget replans; run under -race this validates the
// fleet's quiesce-and-swap locking.
func TestFleetConcurrentInferAndReplan(t *testing.T) {
	f := sti.NewFleet(300 << 10)
	if err := f.Add("a", fleetSystem(t, 11), 200*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("b", fleetSystem(t, 12), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := "a"
			if c%2 == 1 {
				name = "b"
			}
			for i := 0; i < 5; i++ {
				if _, err := classify(f, name, []int{1, 2, 3}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, budget := range []int64{150 << 10, 300 << 10} {
			if err := f.SetBudget(budget); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
