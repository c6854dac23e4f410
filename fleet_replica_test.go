package sti_test

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"sti"
)

// TestFleetReplicatedServeIdenticalLogits: a replicated model serves
// every request with logits byte-identical to a single-replica fleet
// planned under the same per-replica grant — replicas are pure
// capacity, never a correctness change. (The grant arbitration is
// per-replica, so the apples-to-apples single fleet gets one replica's
// slice of the replicated fleet's budget: both plan the same ladder.)
func TestFleetReplicatedServeIdenticalLogits(t *testing.T) {
	req := sti.Request{Task: sti.TaskClassify, Tokens: []int{1, 9, 8, 7, 2}}

	single := sti.NewFleet(32 << 10) // == (96 << 10) / 3 replicas
	if err := single.Add("m", fleetSystem(t, 5), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := single.Replan(); err != nil {
		t.Fatal(err)
	}
	want, err := single.Serve(context.Background(), "m", req)
	if err != nil {
		t.Fatal(err)
	}

	f := sti.NewFleet(96 << 10)
	if err := f.Add("m", fleetSystem(t, 5), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas("m", 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.Replicas("m"); n != 3 {
		t.Fatalf("replicas = %d, want 3", n)
	}

	// Concurrent requests spread across replicas; every logit vector
	// must match the single-replica fleet bit for bit.
	const requests = 9
	var wg sync.WaitGroup
	resps := make([]*sti.Response, requests)
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = f.Serve(context.Background(), "m", req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		for j := range resps[i].Logits {
			if math.Float32bits(resps[i].Logits[j]) != math.Float32bits(want.Logits[j]) {
				t.Fatalf("request %d logit %d: %v != single-replica %v",
					i, j, resps[i].Logits[j], want.Logits[j])
			}
		}
	}

	// Dispatch reached more than one replica and every request is
	// accounted to exactly one of them.
	ps, ok := f.ReplicaStats("m")
	if !ok {
		t.Fatal("no replica stats for managed model")
	}
	var total uint64
	busy := 0
	for _, served := range ps.Served {
		total += served
		if served > 0 {
			busy++
		}
	}
	if total != requests {
		t.Fatalf("per-replica served sums to %d, want %d", total, requests)
	}
	if busy < 2 {
		t.Fatalf("only %d replica(s) served traffic; want least-loaded dispatch to spread %d concurrent requests", busy, requests)
	}
}

// TestFleetReplicaBudgetArbitration: the fleet-wide byte budget still
// bounds total preload residency when a model's grant is split across
// replicas, and each replica's buffer runs under its own slice.
func TestFleetReplicaBudgetArbitration(t *testing.T) {
	const budget = 120 << 10
	f := sti.NewFleet(budget)
	if err := f.Add("a", fleetSystem(t, 6), 200*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("b", fleetSystem(t, 7), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}

	a, _ := f.Entry("a")
	if a.Budget != 80<<10 {
		t.Fatalf("a granted %d, want 2/3 of %d", a.Budget, budget)
	}
	if a.Replicas != 4 {
		t.Fatalf("a has %d replicas, want 4", a.Replicas)
	}
	ps, _ := f.ReplicaStats("a")
	if ps.PerReplica != a.Budget/4 {
		t.Fatalf("per-replica slice %d, want %d", ps.PerReplica, a.Budget/4)
	}
	if a.Plan.PreloadUsed > ps.PerReplica {
		t.Fatalf("default plan preloads %d bytes into a %d-byte replica buffer", a.Plan.PreloadUsed, ps.PerReplica)
	}
	if got := f.PreloadBytes(); got == 0 || got > budget {
		t.Fatalf("fleet holds %d preload bytes, want within (0, %d]", got, budget)
	}

	// Shrinking the fleet budget re-arbitrates across models AND
	// replicas; residency follows.
	if err := f.SetBudget(budget / 2); err != nil {
		t.Fatal(err)
	}
	if got := f.PreloadBytes(); got > budget/2 {
		t.Fatalf("fleet holds %d preload bytes over the reduced budget %d", got, budget/2)
	}
}

// TestFleetSingleflightDedupesReplicaIO: concurrent requests on a
// replicated model dedupe their shard reads through the model's shared
// cache — flash IO stays ~1× while request concurrency grows.
func TestFleetSingleflightDedupesReplicaIO(t *testing.T) {
	f := sti.NewFleet(0) // zero preload: every execution streams all shards
	if err := f.Add("m", fleetSystem(t, 8), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas("m", 4); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}

	req := sti.Request{Task: sti.TaskClassify, Tokens: []int{3, 1, 4, 1, 5}}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.Serve(context.Background(), "m", req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	cs, ok := f.SharedCacheStats("m")
	if !ok {
		t.Fatal("no shared-cache stats for managed model")
	}
	if cs.Requests == 0 {
		t.Fatal("no payload reads went through the shared cache")
	}
	// 8 streaming executions of one plan: without the shared cache
	// that is 8× the plan's shards in flash reads. With it, each shard
	// is read once (ladder warms read nothing at budget 0).
	if cs.Hits() == 0 {
		t.Fatalf("stats %+v: expected dedup hits across replicas", cs)
	}
	if cs.FlashReads > cs.Requests/2 {
		t.Fatalf("stats %+v: %d of %d reads hit flash; want the shared cache to absorb most", cs, cs.FlashReads, cs.Requests)
	}
}

// TestFleetPressureScalesUpAndDrains drives the scheduler's
// queue-pressure signal by hand: congestion grows the pool toward the
// SetReplicas ceiling, a sustained idle stretch drains it back and the
// reclaimed bytes return to the survivors.
func TestFleetPressureScalesUpAndDrains(t *testing.T) {
	f := sti.NewFleet(96 << 10)
	if err := f.Add("m", fleetSystem(t, 9), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas("m", 2); err != nil {
		t.Fatal(err)
	}
	if err := f.ConfigureReplicas("m", sti.ReplicaOptions{
		Min: 1, Max: 2,
		HighWater: 0.5,
		IdleAfter: 5 * time.Millisecond,
		Cooldown:  time.Nanosecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}

	// Drain first: idle observations shrink the pool to one replica.
	f.Pressure("m", 0, 64) // arms the idle clock
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.Pressure("m", 0, 64)
		if n, _ := f.Replicas("m"); n == 1 {
			break
		}
		if time.Now().After(deadline) {
			n, _ := f.Replicas("m")
			t.Fatalf("pool still at %d replicas after sustained idle pressure", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The retired replica's bytes were reclaimed; the survivor owns the
	// whole model grant again.
	ps, _ := f.ReplicaStats("m")
	if ps.PerReplica != ps.Budget {
		t.Fatalf("survivor slice %d, want the whole grant %d", ps.PerReplica, ps.Budget)
	}
	if got := f.PreloadBytes(); got > 96<<10 {
		t.Fatalf("fleet holds %d bytes over budget after drain", got)
	}

	// Congestion: depth at the high-water mark regrows the pool.
	deadline = time.Now().Add(5 * time.Second)
	for {
		f.Pressure("m", 32, 64)
		if n, _ := f.Replicas("m"); n == 2 {
			break
		}
		if time.Now().After(deadline) {
			n, _ := f.Replicas("m")
			t.Fatalf("pool still at %d replicas under sustained congestion", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Scale-up re-splits the grant and the fleet-wide bound holds.
	ps, _ = f.ReplicaStats("m")
	if ps.PerReplica != ps.Budget/2 {
		t.Fatalf("per-replica slice %d after scale-up, want %d", ps.PerReplica, ps.Budget/2)
	}
	if got := f.PreloadBytes(); got > 96<<10 {
		t.Fatalf("fleet holds %d bytes over budget after scale-up", got)
	}
	// Serving still works mid-elasticity.
	if _, err := f.Serve(context.Background(), "m",
		sti.Request{Task: sti.TaskClassify, Tokens: []int{2, 7, 1, 8}}); err != nil {
		t.Fatal(err)
	}
}

// TestFleetScaleKeepsPlan: every tier is planned against the ceiling's
// per-replica slice, so an elastic step changes only the pool's
// members — the committed ladder, and with it every output, is the same
// at any live replica count. At this budget the one-replica grant plans
// a larger ladder than the two-replica ceiling grant, so a step that
// replanned would show.
func TestFleetScaleKeepsPlan(t *testing.T) {
	const budget = 96 << 10
	sys := fleetSystem(t, 9)
	f := sti.NewFleet(budget)
	if err := f.Add("m", sys, 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas("m", 2); err != nil {
		t.Fatal(err)
	}
	if err := f.ConfigureReplicas("m", sti.ReplicaOptions{
		HighWater: 0.5,
		IdleAfter: 5 * time.Millisecond,
		Cooldown:  time.Nanosecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	before, _ := f.Entry("m")
	cfg := sys.Store.Man.Config
	whole, err := sys.Plan(before.Target, before.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Fidelity(cfg.Layers, cfg.Heads) == before.Plan.Fidelity(cfg.Layers, cfg.Heads) {
		t.Fatal("the one- and two-replica grants plan the same ladder; the test cannot tell a replan")
	}

	inputs := [][]int{{2, 7, 1, 8}, {1, 9, 8, 7, 2}, {3, 1, 4}}
	serveAll := func() []*sti.Response {
		resps := make([]*sti.Response, len(inputs))
		for i, tokens := range inputs {
			resp, err := f.Serve(context.Background(), "m", sti.Request{Task: sti.TaskClassify, Tokens: tokens})
			if err != nil {
				t.Fatal(err)
			}
			resps[i] = resp
		}
		return resps
	}
	want := serveAll()

	for _, step := range []struct {
		replicas, depth int
	}{{1, 0}, {2, 32}} {
		f.Pressure("m", step.depth, 64) // arms the idle clock on the way down
		deadline := time.Now().Add(5 * time.Second)
		for {
			f.Pressure("m", step.depth, 64)
			if n, _ := f.Replicas("m"); n == step.replicas {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("pool never reached %d replicas under pressure %d/64", step.replicas, step.depth)
			}
			time.Sleep(2 * time.Millisecond)
		}

		e, _ := f.Entry("m")
		if e.Plan != before.Plan {
			t.Fatalf("at %d replicas: the step swapped the default plan", step.replicas)
		}
		for i, got := range serveAll() {
			if got.Tier.Fidelity != want[i].Tier.Fidelity {
				t.Fatalf("at %d replicas, input %d: fidelity %v, want %v",
					step.replicas, i, got.Tier.Fidelity, want[i].Tier.Fidelity)
			}
			for j := range got.Logits {
				if math.Float32bits(got.Logits[j]) != math.Float32bits(want[i].Logits[j]) {
					t.Fatalf("at %d replicas, input %d logit %d: %v, want %v",
						step.replicas, i, j, got.Logits[j], want[i].Logits[j])
				}
			}
		}
		if got := f.PreloadBytes(); got > budget {
			t.Fatalf("at %d replicas: fleet holds %d preload bytes over budget %d", step.replicas, got, budget)
		}
	}
}

// TestFleetCeilingChangeReplans: raising a planned model's ceiling
// replans it against the thinner slice, so every pinned tier's preload
// set fits the buffer each replica owns at the new ceiling.
func TestFleetCeilingChangeReplans(t *testing.T) {
	f := sti.NewFleet(96 << 10)
	if err := f.Add("m", fleetSystem(t, 12), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas("m", 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	before, _ := f.Entry("m")
	if err := f.ConfigureReplicas("m", sti.ReplicaOptions{Max: 3}); err != nil {
		t.Fatal(err)
	}
	after, _ := f.Entry("m")
	if after.Plan == before.Plan {
		t.Fatal("a new ceiling on a planned model kept the old ladder")
	}
	if after.Replicas != 2 {
		t.Fatalf("raising the ceiling changed the live count to %d, want 2", after.Replicas)
	}
	per := after.Budget / 3
	for _, tier := range after.Tiers {
		if tier.Plan.PreloadUsed > per {
			t.Fatalf("tier %v preloads %d bytes, over the ceiling slice %d", tier.Target, tier.Plan.PreloadUsed, per)
		}
	}
}

// TestFleetRemoveRetiresReplicas: removing a replicated model releases
// every replica's preload bytes, not just replica zero's.
func TestFleetRemoveRetiresReplicas(t *testing.T) {
	f := sti.NewFleet(128 << 10)
	drop := fleetSystem(t, 10)
	if err := f.Add("keep", fleetSystem(t, 11), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("drop", drop, 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas("drop", 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	ps, _ := f.ReplicaStats("drop")
	if ps.CacheBytes == 0 {
		t.Fatal("replicated model warmed nothing")
	}
	if err := f.Remove("drop"); err != nil {
		t.Fatal(err)
	}
	if got := drop.Engine.CacheBytes(); got != 0 {
		t.Fatalf("removed model's replica 0 still holds %d bytes", got)
	}
	keep, _ := f.Entry("keep")
	if got := f.PreloadBytes(); got > keep.Budget {
		t.Fatalf("fleet holds %d bytes after remove, want ≤ survivor grant %d", got, keep.Budget)
	}
}
