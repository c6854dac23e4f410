package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"sti/internal/pipeline"
	"sti/internal/replica"
	"sti/internal/store"
)

// elasticStub overrides the stub backend's replica surfaces so the
// scheduler's pressure signal and stats plumbing can be observed
// without real pools.
type elasticStub struct {
	stubBackend

	mu        sync.Mutex
	pressures []pressureObs
	pool      replica.PoolStats
	cache     store.CacheStats
}

type pressureObs struct {
	model           string
	depth, capacity int
}

func (b *elasticStub) Pressure(model string, depth, capacity int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pressures = append(b.pressures, pressureObs{model, depth, capacity})
}

func (b *elasticStub) ReplicaStats(model string) (replica.PoolStats, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pool, true
}

func (b *elasticStub) SharedCacheStats(model string) (store.CacheStats, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cache, true
}

func (b *elasticStub) observations() []pressureObs {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]pressureObs(nil), b.pressures...)
}

// TestSchedulerFeedsPressureSignal: every admission and every worker
// drain reports the queue's depth/capacity to an elastic backend.
func TestSchedulerFeedsPressureSignal(t *testing.T) {
	b := &elasticStub{stubBackend: stubBackend{targets: twoModels()}}
	s := New(b, Options{QueueDepth: 8})
	defer s.Close()

	if _, err := s.Submit(context.Background(), "sentiment",
		pipeline.Request{Task: pipeline.TaskClassify, Tokens: []int{1}}); err != nil {
		t.Fatal(err)
	}
	obs := b.observations()
	if len(obs) < 2 {
		t.Fatalf("got %d pressure observations for one served request, want admission + drain", len(obs))
	}
	sawDrain := false
	for _, o := range obs {
		if o.model != "sentiment" {
			t.Fatalf("pressure for model %q, want sentiment", o.model)
		}
		if o.capacity != 8 {
			t.Fatalf("pressure capacity %d, want the queue depth 8", o.capacity)
		}
		if o.depth == 0 {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Fatal("no idle (depth 0) observation after the queue drained")
	}
}

// TestSchedulerIdleTickerKeepsObserving: once a model has served
// traffic, the background ticker keeps reporting its (idle) queue to
// the elastic backend with no further submits — the signal a pool
// needs to drain surplus replicas after traffic stops entirely.
func TestSchedulerIdleTickerKeepsObserving(t *testing.T) {
	b := &elasticStub{stubBackend: stubBackend{targets: twoModels()}}
	s := New(b, Options{})
	defer s.Close()

	if _, err := s.Submit(context.Background(), "sentiment",
		pipeline.Request{Task: pipeline.TaskClassify, Tokens: []int{1}}); err != nil {
		t.Fatal(err)
	}
	baseline := len(b.observations())
	deadline := time.Now().Add(5 * time.Second)
	for len(b.observations()) < baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("no ticker observations after traffic stopped (still %d)", len(b.observations()))
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, o := range b.observations()[baseline:] {
		if o.depth != 0 {
			t.Fatalf("idle-ticker observation reports depth %d, want 0", o.depth)
		}
	}
}

// TestSchedulerSnapshotSurfacesReplicaStats: Snapshot merges the
// backend's pool and shared-cache counters into per-model and
// aggregate stats.
func TestSchedulerSnapshotSurfacesReplicaStats(t *testing.T) {
	b := &elasticStub{stubBackend: stubBackend{targets: twoModels()}}
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
