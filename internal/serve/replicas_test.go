package serve

import (
	"context"
	"sync"
	"testing"

	"sti/internal/pipeline"
	"sti/internal/replica"
	"sti/internal/store"
)

// replicaStub overrides the stub backend's replica surfaces so the
// scheduler's stats plumbing can be observed without real pools.
type replicaStub struct {
	stubBackend

	mu    sync.Mutex
	pool  replica.PoolStats
	cache store.CacheStats
}

func (b *replicaStub) ReplicaStats(model string) (replica.PoolStats, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pool, true
}

func (b *replicaStub) SharedCacheStats(model string) (store.CacheStats, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cache, true
}

// TestSchedulerSnapshotSurfacesReplicaStats: Snapshot merges the
// backend's pool and shared-cache counters into per-model and
// aggregate stats.
func TestSchedulerSnapshotSurfacesReplicaStats(t *testing.T) {
	b := &replicaStub{stubBackend: stubBackend{targets: twoModels()}}
	b.pool = replica.PoolStats{Replicas: 3, Served: []uint64{4, 2, 1}, ScaleUps: 2, ScaleDowns: 1}
	b.cache = store.CacheStats{
		Requests: 40, FlashReads: 10,
		SingleflightHits: 18, RetainedHits: 12,
		BytesSaved: 9000,
	}
	s := New(b, Options{})
	defer s.Close()

	if _, err := s.Submit(context.Background(), "sentiment",
		pipeline.Request{Task: pipeline.TaskClassify, Tokens: []int{1}}); err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot()
	if len(st.Models) != 1 {
		t.Fatalf("%d models in snapshot, want 1", len(st.Models))
	}
	ms := st.Models[0]
	if ms.Replicas != 3 || len(ms.ReplicaServed) != 3 || ms.ReplicaServed[0] != 4 {
		t.Fatalf("replica stats %+v not surfaced", ms)
	}
	if ms.ScaleUps != 2 || ms.ScaleDowns != 1 {
		t.Fatalf("scale counters %d/%d, want 2/1", ms.ScaleUps, ms.ScaleDowns)
	}
	if ms.SingleflightHits != 30 || ms.FlashReads != 10 || ms.SingleflightBytesSaved != 9000 {
		t.Fatalf("singleflight stats %+v, want 30 hits / 10 flash reads / 9000 saved", ms)
	}
	if st.Replicas != 3 || st.SingleflightHits != 30 {
		t.Fatalf("aggregate replicas %d / singleflight %d, want 3 / 30", st.Replicas, st.SingleflightHits)
	}
}

// TestSchedulerPlainBackendUnaffected: a backend whose replica
// surfaces report nothing serves exactly as before and reports zero
// replica fields.
func TestSchedulerPlainBackendUnaffected(t *testing.T) {
	b := &stubBackend{targets: twoModels()}
	s := New(b, Options{})
	defer s.Close()

	if _, err := s.Submit(context.Background(), "sentiment",
		pipeline.Request{Task: pipeline.TaskClassify, Tokens: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot()
	if st.Replicas != 0 || st.SingleflightHits != 0 {
		t.Fatalf("plain backend reports replica stats %d/%d, want zeros", st.Replicas, st.SingleflightHits)
	}
	if st.Completed != 1 {
		t.Fatalf("completed %d, want 1", st.Completed)
	}
}
