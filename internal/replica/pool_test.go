package replica

import (
	"context"
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

func (fx *poolFixture) factory(t *testing.T) func(id int) *pipeline.Engine {
	res, err := fx.st.LoadResident()
	if err != nil {
		t.Fatal(err)
	}
	return func(id int) *pipeline.Engine {
		return pipeline.NewReplicaEngine(fx.st, res, fx.shared, 0)
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

	a, b, c := p.Acquire(), p.Acquire(), p.Acquire()
	if a.ID == b.ID || b.ID == c.ID || a.ID == c.ID {
		t.Fatalf("three acquisitions landed on replicas %d,%d,%d; want three distinct", a.ID, b.ID, c.ID)
	}
	p.Release(b, 1)
	if d := p.Acquire(); d.ID != b.ID {
		t.Fatalf("fourth acquisition landed on %d; want the idle replica %d", d.ID, b.ID)
	}
	st := p.Stats()
	if st.Replicas != 3 || st.Served[b.ID] != 1 {
		t.Fatalf("stats %+v: want 3 replicas and 1 served on replica %d", st, b.ID)
	}
}

// TestPoolNewRejectsZeroReplicas: a pool has at least one replica.
func TestPoolNewRejectsZeroReplicas(t *testing.T) {
	fx := newFixture(t, 8<<10)
	if _, err := New(fx.factory(t), 0); err == nil {
		t.Fatal("New built a pool of zero replicas")
	}
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
			r := p.Acquire()
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
