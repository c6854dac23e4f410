package sti_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sti"
	"sti/internal/serve"
)

// tieredFleet builds a one-model fleet whose 50ms default target sits
// on the steep part of the tiny model's latency/fidelity curve, so the
// ladder's 25ms and 100ms tiers select visibly different submodels.
func tieredFleet(t *testing.T, budget int64) *sti.Fleet {
	t.Helper()
	f := sti.NewFleet(budget)
	if err := f.Add("m", fleetSystem(t, 40), 50*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetServesPerRequestSLOTiers is the tentpole acceptance test:
// two concurrent request classes — tight (25ms) vs relaxed (100ms)
// TargetLatency — hit the same model and must be served by different
// plan tiers, with the tight tier's coarser plan streaming fewer bytes
// per request; and under induced queue pressure a best-effort request
// is downgraded to a coarser tier (recorded in its Response) rather
// than shed.
func TestFleetServesPerRequestSLOTiers(t *testing.T) {
	f := tieredFleet(t, 0) // zero preload: every request streams its full plan

	e, _ := f.Entry("m")
	if len(e.Tiers) != 3 {
		t.Fatalf("ladder %v, want 3 graduated tiers", e.Tiers)
	}

	// Two concurrent classes at the same model.
	const perClass = 4
	type obs struct {
		tier  *sti.TierInfo
		bytes int64
	}
	tight := make(chan obs, perClass)
	relaxed := make(chan obs, perClass)
	var wg sync.WaitGroup
	serveClass := func(target time.Duration, out chan obs) {
		defer wg.Done()
		resp, err := f.Serve(context.Background(), "m", sti.Request{
			Task: sti.TaskClassify, Tokens: []int{1, 5, 6, 2},
			TargetLatency: target,
		})
		if err != nil {
			t.Error(err)
			return
		}
		out <- obs{tier: resp.Tier, bytes: resp.Stats.BytesRead}
	}
	for i := 0; i < perClass; i++ {
		wg.Add(2)
		go serveClass(25*time.Millisecond, tight)
		go serveClass(100*time.Millisecond, relaxed)
	}
	wg.Wait()
	close(tight)
	close(relaxed)

	var tightBytes, relaxedBytes int64
	for o := range tight {
		if o.tier == nil || o.tier.Target != 25*time.Millisecond {
			t.Fatalf("tight request served by tier %+v, want the 25ms tier", o.tier)
		}
		if !o.tier.CacheHit || o.tier.Downgraded {
			t.Fatalf("tight tier %+v, want an undowngraded ladder hit", o.tier)
		}
		tightBytes += o.bytes
	}
	for o := range relaxed {
		if o.tier == nil || o.tier.Target != 100*time.Millisecond {
			t.Fatalf("relaxed request served by tier %+v, want the 100ms tier", o.tier)
		}
		relaxedBytes += o.bytes
	}
	// The elastic trade (§4): a tighter target buys a coarser plan, so
	// the tight tier streams strictly fewer bytes per request than the
	// relaxed tier's higher-fidelity submodel.
	if tightBytes/perClass >= relaxedBytes/perClass {
		t.Fatalf("tight tier streams %d bytes/request, relaxed %d — the tiers must trade bytes for latency",
			tightBytes/perClass, relaxedBytes/perClass)
	}

	// Induced queue pressure: a gated backend holds the single worker
	// so the queue fills to its high-water mark, then a best-effort
	// request must be admitted downgraded — served by a coarser tier —
	// rather than shed.
	gb := &gatedBackend{Fleet: f, gate: make(chan struct{})}
	releaseGate := sync.OnceFunc(func() { close(gb.gate) })
	defer releaseGate()
	s := serve.New(gb, serve.Options{QueueDepth: 2, Workers: 1, Slack: 1000})
	defer s.Close()

	normal := func(out chan error) {
		_, err := s.Submit(context.Background(), "m", sti.Request{
			Task: sti.TaskClassify, Tokens: []int{1, 2, 3},
		})
		out <- err
	}
	results := make(chan error, 2)
	go normal(results)
	waitFor(t, "worker pickup", func() bool { return gb.calls.Load() > 0 })
	go normal(results)
	waitFor(t, "one queued", func() bool { return queueDepth(s, "m") == 1 })

	// Queue at the high-water mark: best-effort is demoted, not shed.
	bestEffort := make(chan *serve.Result, 1)
	bestEffortErr := make(chan error, 1)
	go func() {
		res, err := s.Submit(context.Background(), "m", sti.Request{
			Task: sti.TaskClassify, Tokens: []int{1, 2, 3}, Priority: -1,
		})
		bestEffort <- res
		bestEffortErr <- err
	}()
	waitFor(t, "best-effort queued", func() bool { return queueDepth(s, "m") == 2 })
	// The queue is now truly full: only here does anything shed.
	if _, err := s.Submit(context.Background(), "m", sti.Request{
		Task: sti.TaskClassify, Tokens: []int{1}, Priority: -1,
	}); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("full queue got %v, want ErrQueueFull", err)
	}
	releaseGate()

	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	res := <-bestEffort
	if err := <-bestEffortErr; err != nil {
		t.Fatalf("congested best-effort request got %v, want a downgraded result", err)
	}
	if res.Tier == nil || !res.Tier.Downgraded {
		t.Fatalf("best-effort tier %+v, want the downgrade recorded in the response", res.Tier)
	}
	// Downgrade = one rung coarser than the model's 50ms default.
	if res.Tier.Target != 25*time.Millisecond {
		t.Fatalf("downgraded request served by tier %v, want the coarser 25ms tier", res.Tier.Target)
	}
	st := s.Snapshot()
	if st.Downgraded != 1 || st.Shed != 1 || st.Completed != 3 {
		t.Fatalf("snapshot %+v, want 1 downgraded + 1 shed + 3 completed", st)
	}
}

// gatedBackend wraps a Fleet so a test can hold the scheduler's worker
// mid-execution and fill its queue deterministically.
type gatedBackend struct {
	*sti.Fleet
	gate  chan struct{}
	calls atomic.Int64
}

func (g *gatedBackend) ServeBatch(ctx context.Context, name string, reqs []sti.Request) ([]*sti.Response, *sti.BatchStats, error) {
	g.calls.Add(1)
	<-g.gate
	return g.Fleet.ServeBatch(ctx, name, reqs)
}

// queueDepth reads a model's queue depth from the scheduler snapshot.
func queueDepth(s *serve.Scheduler, model string) int {
	for _, ms := range s.Snapshot().Models {
		if ms.Model == model {
			return ms.QueueDepth
		}
	}
	return 0
}

// waitFor polls cond for up to 5s, failing the test on timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetOffLadderSLOPlansTierOnDemand: an SLO no ladder tier meets
// is planned and cached on first use (a plan-cache miss), then served
// from the cache (a hit) — and the entry's tier list grows by one.
func TestFleetOffLadderSLOPlansTierOnDemand(t *testing.T) {
	f := tieredFleet(t, 64<<10)
	before, _ := f.Entry("m")

	req := sti.Request{
		Task: sti.TaskClassify, Tokens: []int{1, 2, 3},
		TargetLatency: 12 * time.Millisecond, // tighter than the 25ms rung
	}
	first, err := f.Serve(context.Background(), "m", req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tier == nil || first.Tier.CacheHit || first.Tier.Target != 12*time.Millisecond {
		t.Fatalf("first off-ladder serve tier %+v, want a 12ms miss", first.Tier)
	}
	second, err := f.Serve(context.Background(), "m", req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Tier == nil || !second.Tier.CacheHit {
		t.Fatalf("second off-ladder serve tier %+v, want a cache hit", second.Tier)
	}
	after, _ := f.Entry("m")
	if len(after.Tiers) != len(before.Tiers)+1 {
		t.Fatalf("ladder grew %d -> %d tiers, want +1 on-demand tier",
			len(before.Tiers), len(after.Tiers))
	}
	// A replan (here: a budget change) rebuilds the pinned ladder and
	// drops on-demand tiers planned under the old grants.
	if err := f.SetBudget(32 << 10); err != nil {
		t.Fatal(err)
	}
	rebuilt, _ := f.Entry("m")
	if len(rebuilt.Tiers) != 3 {
		t.Fatalf("ladder holds %d tiers after replan, want the 3 pinned rungs", len(rebuilt.Tiers))
	}
}

// TestFleetSetBudgetDuringServeKeepsGrants is the regression for the
// replan/serve race: SetBudget storms concurrent with in-flight Serve
// traffic (run under -race) must leave every engine inside its
// committed grant — PreloadBytes never exceeds the sum of grants, and
// the grants never exceed the fleet budget.
func TestFleetSetBudgetDuringServeKeepsGrants(t *testing.T) {
	f := sti.NewFleet(400 << 10)
	if err := f.Add("a", fleetSystem(t, 41), 50*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("b", fleetSystem(t, 42), 200*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}

	targets := []time.Duration{0, 25 * time.Millisecond, 100 * time.Millisecond, 60 * time.Millisecond}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := "a"
			if c%2 == 1 {
				name = "b"
			}
			for i := 0; i < 8; i++ {
				_, err := f.Serve(context.Background(), name, sti.Request{
					Task: sti.TaskClassify, Tokens: []int{1, 2, 3},
					TargetLatency: targets[(c+i)%len(targets)],
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, budget := range []int64{150 << 10, 400 << 10, 80 << 10, 400 << 10} {
			if err := f.SetBudget(budget); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Every engine sits inside its committed grant, and the grants sum
	// to no more than the fleet budget.
	var grantSum int64
	for _, name := range f.Names() {
		e, _ := f.Entry(name)
		grantSum += e.Budget
		if held := e.System.Engine.CacheBytes(); held > e.Budget {
			t.Fatalf("%s holds %d preload bytes over its %d grant", name, held, e.Budget)
		}
	}
	if grantSum > f.Budget() {
		t.Fatalf("grants sum to %d over the fleet budget %d", grantSum, f.Budget())
	}
	if held := f.PreloadBytes(); held > grantSum {
		t.Fatalf("fleet holds %d preload bytes over the committed grants %d", held, grantSum)
	}
}
