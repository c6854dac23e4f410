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
	if e, _ := f.Entry("m"); e.Replicas != 3 {
		t.Fatalf("replicas = %d, want 3", e.Replicas)
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
// bounds total preload residency when a model has replicas: its plans
// are made against one replica's slice, and its one buffer runs under
// the whole grant.
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
	if a.Plan.PreloadUsed > a.Budget/4 {
		t.Fatalf("default plan preloads %d bytes, past the %d-byte slice it was planned against", a.Plan.PreloadUsed, a.Budget/4)
	}
	if got := a.System.Engine.Budget(); got != a.Budget {
		t.Fatalf("a's buffer budget %d, want its whole grant %d", got, a.Budget)
	}
	if got := a.System.Engine.CacheBytes(); got < a.Plan.PreloadUsed || got > a.Budget {
		t.Fatalf("a's buffer holds %d bytes; want the default tier's %d at least, within the grant %d", got, a.Plan.PreloadUsed, a.Budget)
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

// TestFleetScaleKeepsPlan: a model's ladder is a function of its grant
// and its replica count only, so fleets built with the same count plan
// against the same slice (Budget/n) and serve byte-identical outputs.
// At this budget the one-replica grant plans a larger ladder than the
// two-replica one, so each count must plan against its own slice.
func TestFleetScaleKeepsPlan(t *testing.T) {
	const budget = 96 << 10
	inputs := [][]int{{2, 7, 1, 8}, {1, 9, 8, 7, 2}, {3, 1, 4}}
	want := map[int][]*sti.Response{}
	fidelity := map[int]float64{}
	for _, n := range []int{2, 1, 2, 1} {
		sys := fleetSystem(t, 9)
		f := sti.NewFleet(budget)
		if err := f.Add("m", sys, 200*time.Millisecond, 1); err != nil {
			t.Fatal(err)
		}
		if err := f.SetReplicas("m", n); err != nil {
			t.Fatal(err)
		}
		if err := f.Replan(); err != nil {
			t.Fatal(err)
		}
		e, _ := f.Entry("m")
		if e.Replicas != n {
			t.Fatalf("SetReplicas(%d) left %d replicas", n, e.Replicas)
		}
		cfg := sys.Store.Man.Config
		ref, err := sys.Plan(e.Target, e.Budget/int64(n))
		if err != nil {
			t.Fatal(err)
		}
		fidelity[n] = e.Plan.Fidelity(cfg.Layers, cfg.Heads)
		if wantF := ref.Fidelity(cfg.Layers, cfg.Heads); fidelity[n] != wantF {
			t.Fatalf("at %d replicas: default tier fidelity %v, want %v planned under Budget/%d", n, fidelity[n], wantF, n)
		}
		got := make([]*sti.Response, len(inputs))
		for i, tokens := range inputs {
			if got[i], err = f.Serve(context.Background(), "m", sti.Request{Task: sti.TaskClassify, Tokens: tokens}); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := want[n]; !ok {
			want[n] = got
		}
		for i := range got {
			if got[i].Tier.Fidelity != want[n][i].Tier.Fidelity {
				t.Fatalf("at %d replicas, input %d: fidelity %v, want %v",
					n, i, got[i].Tier.Fidelity, want[n][i].Tier.Fidelity)
			}
			for j := range got[i].Logits {
				if math.Float32bits(got[i].Logits[j]) != math.Float32bits(want[n][i].Logits[j]) {
					t.Fatalf("at %d replicas, input %d logit %d: %v, want %v",
						n, i, j, got[i].Logits[j], want[n][i].Logits[j])
				}
			}
		}
		if got := f.PreloadBytes(); got > budget {
			t.Fatalf("at %d replicas: fleet holds %d preload bytes over budget %d", n, got, budget)
		}
	}
	if fidelity[1] == fidelity[2] {
		t.Fatal("the one- and two-replica grants plan the same ladder; the test cannot tell a replan")
	}
}

// TestFleetSetReplicasRebuildsBeforePlan: before the first plan the
// last SetReplicas wins: the pool of the earlier count is retired and
// exactly the new count of replicas serves after Replan. Stats readers
// running alongside see one pool or the other, never a torn one.
func TestFleetSetReplicasRebuildsBeforePlan(t *testing.T) {
	f := sti.NewFleet(96 << 10)
	if err := f.Add("m", fleetSystem(t, 12), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ps, _ := f.ReplicaStats("m")
			if len(ps.Served) != ps.Replicas {
				t.Errorf("pool stats %+v: %d served counters for %d replicas", ps, len(ps.Served), ps.Replicas)
				return
			}
			f.GenerateStats("m")
			f.Entry("m")
		}
	}()
	for _, n := range []int{2, 3} {
		if err := f.SetReplicas("m", n); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-readerDone
	if t.Failed() {
		t.FailNow()
	}
	if err := f.SetReplicas("m", 0); err == nil {
		t.Fatal("SetReplicas(0) succeeded")
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	e, _ := f.Entry("m")
	ps, _ := f.ReplicaStats("m")
	if e.Replicas != 3 || ps.Replicas != 3 || e.System.Engine.Budget() != e.Budget {
		t.Fatalf("entry %d replicas, pool %+v, buffer budget %d; want 3 replicas over one buffer under the grant %d",
			e.Replicas, ps, e.System.Engine.Budget(), e.Budget)
	}

	// Three streams park in OnToken, each holding its acquisition until
	// its terminal result: least-loaded dispatch puts one on each of
	// the three replicas.
	release := make(chan struct{})
	parked := make(chan struct{}, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			req := sti.Request{Task: sti.TaskGenerate, Tokens: []int{1, 9, 8}, MaxNewTokens: 3,
				OnToken: func(step, token int) {
					once.Do(func() { parked <- struct{}{} })
					<-release
				}}
			if _, err := f.Serve(context.Background(), "m", req); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		<-parked
	}
	ps, _ = f.ReplicaStats("m")
	close(release)
	wg.Wait()
	if len(ps.Inflight) != 3 || ps.Inflight[0] != 1 || ps.Inflight[1] != 1 || ps.Inflight[2] != 1 {
		t.Fatalf("in flight per replica %v, want one stream on each of 3", ps.Inflight)
	}
	if got := f.PreloadBytes(); got > e.Budget {
		t.Fatalf("fleet holds %d preload bytes over the model grant %d", got, e.Budget)
	}
}

// TestFleetSetReplicasAfterPlanRefused: a planned model's replica count
// is fixed: SetReplicas returns an error and leaves the count, the
// plans and the preload residency as they were.
func TestFleetSetReplicasAfterPlanRefused(t *testing.T) {
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
	preload := f.PreloadBytes()
	for _, n := range []int{3, 1, 2} {
		if err := f.SetReplicas("m", n); err == nil {
			t.Fatalf("SetReplicas(%d) on a planned model succeeded", n)
		}
		after, _ := f.Entry("m")
		if after.Replicas != 2 || after.Plan != before.Plan {
			t.Fatalf("refused SetReplicas(%d) left %d replicas (plan kept: %v)", n, after.Replicas, after.Plan == before.Plan)
		}
		if got := f.PreloadBytes(); got != preload {
			t.Fatalf("refused SetReplicas(%d) moved preload residency %d -> %d", n, preload, got)
		}
	}
	if _, err := classify(f, "m", []int{1, 9, 8, 7, 2}); err != nil {
		t.Fatalf("serving after a refused SetReplicas: %v", err)
	}
}

// TestFleetFixedPoolSurvivesIdle: a pool holds its SetReplicas count
// under a real scheduler after its traffic stops — nothing drains a
// replica the operator asked for.
func TestFleetFixedPoolSurvivesIdle(t *testing.T) {
	f := sti.NewFleet(96 << 10)
	if err := f.Add("m", fleetSystem(t, 9), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas("m", 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	s := sti.NewScheduler(f, sti.ServeOptions{Workers: 4, Slack: 1000, MaxBatch: 8})
	defer s.Close()
	for _, tokens := range [][]int{{2, 7, 1, 8}, {1, 9, 8, 7, 2}, {3, 1, 4}} {
		if _, err := s.Submit(context.Background(), "m", sti.Request{Task: sti.TaskClassify, Tokens: tokens}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Snapshot()
	if len(st.Models) != 1 {
		t.Fatalf("%d models in snapshot, want 1", len(st.Models))
	}
	if ms := st.Models[0]; ms.Replicas != 2 {
		t.Fatalf("after an idle stretch: %d replicas, want 2", ms.Replicas)
	}
}

// TestFleetRemoveRetiresReplicas: removing a replicated model empties
// the one preload buffer all its replicas read.
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
	if drop.Engine.CacheBytes() == 0 {
		t.Fatal("replicated model warmed nothing")
	}
	if err := f.Remove("drop"); err != nil {
		t.Fatal(err)
	}
	if got := drop.Engine.CacheBytes(); got != 0 {
		t.Fatalf("removed model's buffer still holds %d bytes", got)
	}
	keep, _ := f.Entry("keep")
	if got := f.PreloadBytes(); got > keep.Budget {
		t.Fatalf("fleet holds %d bytes after remove, want ≤ survivor grant %d", got, keep.Budget)
	}
}
