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

// factory builds replica 0 as an engine over the shared cache with a
// zero budget, and every later replica as its pipeline.NewReplica, the
// way the fleet builds a model's pool. It returns replica 0 too.
func (fx *poolFixture) factory(t *testing.T) (func(id int) *pipeline.Engine, *pipeline.Engine) {
	base, err := pipeline.NewEngine(fx.st, 0)
	if err != nil {
		t.Fatal(err)
	}
	base.SetPayloadSource(fx.shared)
	return func(id int) *pipeline.Engine {
		if id == 0 {
			return base
		}
		return pipeline.NewReplica(base)
	}, base
}

func (fx *poolFixture) newPool(t *testing.T, n int) (*Pool, *pipeline.Engine) {
	t.Helper()
	factory, base := fx.factory(t)
	p, err := New(factory, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Retire)
	return p, base
}

func TestPoolLeastLoadedDispatch(t *testing.T) {
	fx := newFixture(t, 8<<10)
	p, _ := fx.newPool(t, 3)

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
	factory, _ := fx.factory(t)
	if _, err := New(factory, 0); err == nil {
		t.Fatal("New built a pool of zero replicas")
	}
}

// TestPoolReplicasShareOneBuffer: a warm through replica 0 fills the
// one buffer every replica reads, under the whole grant, and a KV
// reservation through any replica is charged to that same buffer.
func TestPoolReplicasShareOneBuffer(t *testing.T) {
	fx := newFixture(t, 8<<10)
	p, base := fx.newPool(t, 4)

	const grant = 32 << 10
	base.SetCacheBudget(grant)
	if err := base.WarmSet([]*planner.Plan{fx.plan}); err != nil {
		t.Fatal(err)
	}
	held := base.CacheBytes()
	if held == 0 || held > grant {
		t.Fatalf("buffer holds %d preload bytes; want within (0, %d]", held, grant)
	}
	for _, r := range p.replicas {
		if got := r.Engine.CacheBytes(); got != held {
			t.Fatalf("replica %d reports %d preload bytes, want the shared %d", r.ID, got, held)
		}
		if got := r.Engine.Budget(); got != grant {
			t.Fatalf("replica %d budget %d, want the whole grant %d", r.ID, got, grant)
		}
	}

	last := p.replicas[3].Engine
	if !last.ReserveKV(grant / 2) {
		t.Fatalf("replica 3 refused %d KV bytes under a %d-byte shared grant", grant/2, grant)
	}
	if got := base.KVBytes(); got != grant/2 {
		t.Fatalf("replica 0 sees %d KV bytes, want replica 3's %d", got, grant/2)
	}
	if got := base.CacheBytes() + base.KVBytes(); got > grant {
		t.Fatalf("buffer holds %d preload + KV bytes over its %d grant", got, grant)
	}
	last.ReleaseKV(grant / 2)
	if got := base.KVBytes(); got != 0 {
		t.Fatalf("%d KV bytes still charged after release", got)
	}
}

func TestPoolSharedCacheDedupesAcrossReplicas(t *testing.T) {
	fx := newFixture(t, 0) // no preload: every execution streams all shards
	p, _ := fx.newPool(t, 4)

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

// TestPoolRetireLeavesBufferToOwner: Retire stops every replica's step
// loop and leaves the shared buffer alone; the buffer's owner zeroes it
// once, through any one engine, and every replica sees it empty.
func TestPoolRetireLeavesBufferToOwner(t *testing.T) {
	fx := newFixture(t, 8<<10)
	p, base := fx.newPool(t, 2)
	base.SetCacheBudget(32 << 10)
	if err := base.WarmSet([]*planner.Plan{fx.plan}); err != nil {
		t.Fatal(err)
	}
	held := base.CacheBytes()
	if held == 0 {
		t.Fatal("buffer warmed nothing")
	}
	p.Retire()
	for _, r := range p.replicas {
		if _, err := r.Batcher.Submit(context.Background(), fx.plan,
			pipeline.Request{Task: pipeline.TaskGenerate, Tokens: []int{1, 2}, MaxNewTokens: 1}); err == nil {
			t.Fatalf("replica %d's step loop accepted a stream after Retire", r.ID)
		}
		if got := r.Engine.CacheBytes(); got != held {
			t.Fatalf("Retire moved replica %d's buffer %d -> %d bytes", r.ID, held, got)
		}
	}
	base.SetCacheBudget(0)
	for _, r := range p.replicas {
		if got := r.Engine.CacheBytes(); got != 0 {
			t.Fatalf("replica %d still holds %d bytes after its owner zeroed the buffer", r.ID, got)
		}
	}
}
