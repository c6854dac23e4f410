package sti

import (
	"testing"
	"time"

	"sti/internal/pipeline"
)

// twoReplicaFleet plans one Tiny model at two replicas under budget and
// returns the fleet, the model's system and both replicas' engines.
func twoReplicaFleet(t *testing.T, budget int64) (*Fleet, *System, []*pipeline.Engine) {
	t.Helper()
	dir := t.TempDir()
	if _, err := Preprocess(dir, NewRandomModel(TinyConfig(), 9), []int{2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	sys, err := Load(dir, Odroid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(budget)
	if err := f.Add("m", sys, 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas("m", 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	pool := f.entries["m"].pool
	a, b := pool.Acquire(), pool.Acquire()
	pool.Release(a, 0)
	pool.Release(b, 0)
	if a.Engine == b.Engine {
		t.Fatal("two acquisitions landed on one replica")
	}
	return f, sys, []*pipeline.Engine{a.Engine, b.Engine}
}

// TestFleetReplicasShareOnePreloadBuffer: a two-replica model holds one
// preload buffer, so PreloadBytes counts each payload once and every
// replica engine reports the same bytes as System.Engine.
func TestFleetReplicasShareOnePreloadBuffer(t *testing.T) {
	f, sys, engines := twoReplicaFleet(t, 96<<10)
	held := sys.Engine.CacheBytes()
	if held == 0 {
		t.Fatal("the model warmed nothing")
	}
	if got := f.PreloadBytes(); got != held {
		t.Fatalf("PreloadBytes %d, want the model's one buffer %d", got, held)
	}
	for i, eng := range engines {
		if got := eng.CacheBytes(); got != held {
			t.Fatalf("replica engine %d reports %d preload bytes, want %d", i, got, held)
		}
	}
}

// TestFleetReplicaKVBorrowsWholeGrant: one replica's KV reservation
// arbitrates against the model's whole grant, not half of it, and
// ReleaseKV restores the accounting every engine of the model reads.
func TestFleetReplicaKVBorrowsWholeGrant(t *testing.T) {
	f, sys, engines := twoReplicaFleet(t, 96<<10)
	grant := f.entries["m"].Budget
	want := grant/2 + grant/4
	var eng *pipeline.Engine
	for _, e := range engines {
		if e != sys.Engine {
			eng = e
		}
	}
	if !eng.ReserveKV(want) {
		t.Fatalf("a replica refused %d KV bytes under the model's %d-byte grant", want, grant)
	}
	if got := sys.Engine.KVBytes(); got != want {
		t.Fatalf("System.Engine sees %d KV bytes, want the replica's %d", got, want)
	}
	if got := sys.Engine.CacheBytes() + sys.Engine.KVBytes(); got > grant {
		t.Fatalf("buffer holds %d preload + KV bytes over the grant %d", got, grant)
	}
	eng.ReleaseKV(want)
	for i, e := range engines {
		if got := e.KVBytes(); got != 0 {
			t.Fatalf("engine %d still charges %d KV bytes after release", i, got)
		}
		if got := e.Budget(); got != grant {
			t.Fatalf("engine %d budget %d after release, want the grant %d", i, got, grant)
		}
	}
}
