package replica

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"sti/internal/device"
	"sti/internal/importance"
	"sti/internal/model"
	"sti/internal/pipeline"
	"sti/internal/planner"
	"sti/internal/store"
)

// poolFixture builds a tiny preprocessed store, a shared payload cache
// and a pool factory over them.
type poolFixture struct {
	st     *store.Store
	shared *store.SharedCache
	plan   *planner.Plan
}

func newFixture(t *testing.T, preload int64) *poolFixture {
	t.Helper()
	dir := t.TempDir()
	cfg := model.Tiny()
	w := model.NewRandom(cfg, 7)
	if _, err := store.Preprocess(dir, w, []int{2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	imp := importance.Synthetic("SST-2", cfg.Layers, cfg.Heads)
	req := planner.NewRequest(device.Odroid(), cfg, imp,
		pipeline.ManifestSizer{Man: st.Man}, 100*time.Millisecond, preload)
	req.Bitwidths = []int{2, 4, 6}
	plan, err := req.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return &poolFixture{st: st, shared: store.NewSharedCache(st, 1<<20), plan: plan}
}

func (fx *poolFixture) factory(t *testing.T) func(id int) (*pipeline.Engine, error) {
	res, err := fx.st.LoadResident()
	if err != nil {
		t.Fatal(err)
	}
	return func(id int) (*pipeline.Engine, error) {
		return pipeline.NewReplicaEngine(fx.st, res, fx.shared, 0), nil
	}
}

func (fx *poolFixture) newPool(t *testing.T, n int) *Pool {
	t.Helper()
	p, err := New(fx.factory(t), n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolLeastLoadedDispatch(t *testing.T) {
	fx := newFixture(t, 8<<10)
	p := fx.newPool(t, 3)

	a, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID || b.ID == c.ID || a.ID == c.ID {
		t.Fatalf("three acquisitions landed on replicas %d,%d,%d; want three distinct", a.ID, b.ID, c.ID)
	}
	p.Release(b, 1)
	d, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != b.ID {
		t.Fatalf("fourth acquisition landed on %d; want the idle replica %d", d.ID, b.ID)
	}
	st := p.Stats()
	if st.Replicas != 3 || st.Served[indexOf(t, st.IDs, b.ID)] != 1 {
		t.Fatalf("stats %+v: want 3 replicas and 1 served on replica %d", st, b.ID)
	}
}

func indexOf(t *testing.T, ids []int, id int) int {
	t.Helper()
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	t.Fatalf("replica %d not in %v", id, ids)
	return -1
}

func TestPoolBudgetSplitAcrossReplicas(t *testing.T) {
	fx := newFixture(t, 8<<10)
	p := fx.newPool(t, 4)

	const grant = 32 << 10
	if err := p.Apply(grant, []*planner.Plan{fx.plan}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.PerReplica != grant/4 {
		t.Fatalf("per-replica grant %d, want %d", st.PerReplica, grant/4)
	}
	if st.CacheBytes == 0 || st.CacheBytes > grant {
		t.Fatalf("pool holds %d preload bytes; want within (0, %d]", st.CacheBytes, grant)
	}
	for _, r := range p.replicas {
		if got := r.Engine.CacheBytes(); got > grant/4 {
			t.Fatalf("replica %d holds %d bytes over its %d slice", r.ID, got, grant/4)
		}
		if got := r.Engine.Budget(); got != grant/4 {
			t.Fatalf("replica %d budget %d, want %d", r.ID, got, grant/4)
		}
	}
}

// TestPoolScaleDownDrains is the graceful-retirement regression test:
// a replica retired mid-request finishes its in-flight work before its
// preload bytes are reclaimed — the retirement waits (bounded), never
// sheds, and the survivors regrow into the reclaimed grant.
func TestPoolScaleDownDrains(t *testing.T) {
	fx := newFixture(t, 8<<10)
	p := fx.newPool(t, 1)
	if err := p.ScaleTo(2); err != nil {
		t.Fatal(err)
	}
	const grant = 32 << 10
	if err := p.Apply(grant, []*planner.Plan{fx.plan}); err != nil {
		t.Fatal(err)
	}

	// Occupy both replicas; the youngest (the scale-down victim) runs a
	// real execution mid-retirement.
	first, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	victim := second
	if first.ID > second.ID {
		victim = first
	}
	other := first
	if victim == first {
		other = second
	}

	release := make(chan struct{})
	execDone := make(chan error, 1)
	go func() {
		<-release
		// The retiring replica's in-flight request executes to
		// completion — retirement must not have reclaimed its engine.
		_, _, err := victim.Engine.ExecuteBatch(context.Background(), fx.plan,
			[]pipeline.BatchInput{{Tokens: []int{1, 2, 3}}})
		p.Release(victim, 1)
		execDone <- err
	}()

	scaleDone := make(chan error, 1)
	go func() { scaleDone <- p.ScaleTo(1) }()

	// The drain must wait for the in-flight request: ScaleTo cannot
	// return while the victim is busy.
	select {
	case err := <-scaleDone:
		t.Fatalf("ScaleTo returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := victim.Engine.CacheBytes(); got == 0 {
		t.Fatal("victim's preload bytes reclaimed before its in-flight work finished")
	}
	// New work must not land on the draining replica.
	extra, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if extra.ID == victim.ID {
		t.Fatalf("draining replica %d still receives new work", victim.ID)
	}
	p.Release(extra, 0)
	p.Release(other, 1)

	close(release)
	if err := <-execDone; err != nil {
		t.Fatalf("in-flight execution on the retiring replica: %v", err)
	}
	if err := <-scaleDone; err != nil {
		t.Fatalf("scale-down after drain: %v", err)
	}
	if got := victim.Engine.CacheBytes(); got != 0 {
		t.Fatalf("retired replica still holds %d preload bytes", got)
	}
	st := p.Stats()
	if st.Replicas != 1 || st.Draining != 0 {
		t.Fatalf("pool %+v after scale-down, want 1 live replica", st)
	}
	if st.PerReplica != grant {
		t.Fatalf("survivor grant %d, want the whole %d", st.PerReplica, grant)
	}
	if st.CacheBytes == 0 || st.CacheBytes > grant {
		t.Fatalf("survivor holds %d bytes, want within (0, %d]", st.CacheBytes, grant)
	}
}

// TestPoolScaleDownBoundedWait: a drain that outlives the drain wait
// aborts the retirement instead of shedding the in-flight request — the
// replica returns to service with its bytes intact.
func TestPoolScaleDownBoundedWait(t *testing.T) {
	fx := newFixture(t, 8<<10)
	p := fx.newPool(t, 1)
	p.drainWait = 30 * time.Millisecond
	if err := p.ScaleTo(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(32<<10, []*planner.Plan{fx.plan}); err != nil {
		t.Fatal(err)
	}

	a, _ := p.Acquire()
	b, _ := p.Acquire()
	err := p.ScaleTo(1) // both busy: the victim can never drain in time
	if err == nil || !strings.Contains(err.Error(), "retirement aborted") {
		t.Fatalf("ScaleTo err %v, want aborted retirement", err)
	}
	if got := p.Size(); got != 2 {
		t.Fatalf("pool size %d after aborted retirement, want 2", got)
	}
	// The would-be victim is back in service.
	p.Release(a, 1)
	p.Release(b, 1)
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		r, err := p.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		seen[r.ID] = true
	}
	if len(seen) != 2 {
		t.Fatalf("acquisitions reach %d replicas, want both after aborted retirement", len(seen))
	}
}

// TestPoolScaleToUnwindsFailedGrowth: a factory error mid-growth must
// leave the pool exactly as it was — no live, never-warmed replicas
// for Acquire to dispatch to.
func TestPoolScaleToUnwindsFailedGrowth(t *testing.T) {
	fx := newFixture(t, 8<<10)
	inner := fx.factory(t)
	calls := 0
	p, err := New(func(id int) (*pipeline.Engine, error) {
		calls++
		if calls == 3 { // replica 0 at New, first growth ok, second fails
			return nil, context.DeadlineExceeded
		}
		return inner(id)
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(16<<10, []*planner.Plan{fx.plan}); err != nil {
		t.Fatal(err)
	}
	if err := p.ScaleTo(3); err == nil {
		t.Fatal("ScaleTo(3) succeeded despite the factory failing")
	}
	if got := p.Size(); got != 1 {
		t.Fatalf("pool size %d after failed growth, want 1 (partial spawns unwound)", got)
	}
	r, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine.Budget() == 0 {
		t.Fatal("Acquire returned a never-granted replica after failed growth")
	}
	p.Release(r, 0)
}

// TestPoolScaleToClampsAndMax: a pool never shrinks below one replica
// and has no ceiling but the count it is given; only resizes count as
// scaling events.
func TestPoolScaleToClampsAndMax(t *testing.T) {
	fx := newFixture(t, 8<<10)
	if _, err := New(fx.factory(t), 0); err == nil {
		t.Fatal("New built a pool of zero replicas")
	}
	p := fx.newPool(t, 2)
	if err := p.ScaleTo(0); err != nil {
		t.Fatal(err)
	}
	if got := p.Size(); got != 1 {
		t.Fatalf("size %d after ScaleTo(0), want 1", got)
	}
	if err := p.ScaleTo(4); err != nil {
		t.Fatal(err)
	}
	if got := p.Size(); got != 4 {
		t.Fatalf("size %d after ScaleTo(4), want 4", got)
	}
	if err := p.ScaleTo(4); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.ScaleUps != 1 || st.ScaleDowns != 1 {
		t.Fatalf("scale counters %d up / %d down, want 1/1", st.ScaleUps, st.ScaleDowns)
	}
}

func TestPoolSharedCacheDedupesAcrossReplicas(t *testing.T) {
	fx := newFixture(t, 0) // no preload: every execution streams all shards
	p := fx.newPool(t, 4)
	if err := p.Apply(0, nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := p.Acquire()
			if err != nil {
				t.Error(err)
				return
			}
			_, _, execErr := r.Engine.ExecuteBatch(context.Background(), fx.plan,
				[]pipeline.BatchInput{{Tokens: []int{5, 6, 7}}})
			p.Release(r, 1)
			if execErr != nil {
				t.Error(execErr)
			}
		}()
	}
	wg.Wait()

	cs := fx.shared.Stats()
	shards := uint64(0)
	for l := 0; l < fx.plan.Depth; l++ {
		shards += uint64(len(fx.plan.Slices[l]))
	}
	if cs.FlashReads != shards {
		t.Fatalf("4 replicas cost %d flash reads for %d plan shards; want exactly 1x (shared cache)",
			cs.FlashReads, shards)
	}
	if cs.Hits() != 3*shards {
		t.Fatalf("dedup hits %d, want %d (3 of 4 replicas served without flash)", cs.Hits(), 3*shards)
	}
	if cs.BytesSaved == 0 {
		t.Fatal("no bytes saved despite shared-cache hits")
	}
}

func TestPoolRetireReleasesEverything(t *testing.T) {
	fx := newFixture(t, 8<<10)
	p := fx.newPool(t, 2)
	if err := p.Apply(32<<10, []*planner.Plan{fx.plan}); err != nil {
		t.Fatal(err)
	}
	if p.CacheBytes() == 0 {
		t.Fatal("pool warmed nothing")
	}
	p.Retire()
	if got := p.CacheBytes(); got != 0 {
		t.Fatalf("retired pool still holds %d bytes", got)
	}
}
