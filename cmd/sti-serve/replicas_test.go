package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sti"
)

func TestConcurrencyForValidation(t *testing.T) {
	cases := []struct {
		workers    int
		workersSet bool
		replicas   int
		want       int
		wantErr    bool
	}{
		{workers: 2, workersSet: false, replicas: 1, want: 2},  // defaults untouched
		{workers: 2, workersSet: false, replicas: 4, want: 8},  // adaptive: 2x replicas
		{workers: 12, workersSet: true, replicas: 4, want: 12}, // explicit and ample
		{workers: 4, workersSet: true, replicas: 4, want: 4},   // explicit at the floor
		{workers: 2, workersSet: true, replicas: 4, wantErr: true},
		{workers: 0, workersSet: true, replicas: 1, wantErr: true},
		{workers: 2, workersSet: false, replicas: 0, wantErr: true},
	}
	for _, c := range cases {
		got, err := concurrencyFor(c.workers, c.workersSet, c.replicas)
		if c.wantErr {
			if err == nil {
				t.Errorf("concurrencyFor(%d, %v, %d) = %d, want error", c.workers, c.workersSet, c.replicas, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("concurrencyFor(%d, %v, %d): %v", c.workers, c.workersSet, c.replicas, err)
			continue
		}
		if got != c.want {
			t.Errorf("concurrencyFor(%d, %v, %d) = %d, want %d", c.workers, c.workersSet, c.replicas, got, c.want)
		}
	}
}

// buildReplicatedServer is buildServer with a replica pool per model.
func buildReplicatedServer(t *testing.T, replicas int, opts sti.ServeOptions) (*httptest.Server, *sti.Fleet) {
	t.Helper()
	fleet := sti.NewFleet(256 << 10)
	for i, name := range []string{"sentiment", "nextword"} {
		dir := t.TempDir()
		w := sti.NewRandomModel(sti.TinyConfig(), int64(i+1))
		if _, err := sti.Preprocess(dir, w, []int{2, 4}); err != nil {
			t.Fatal(err)
		}
		sys, err := sti.Load(dir, sti.Odroid(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.Add(name, sys, 200*time.Millisecond, 1); err != nil {
			t.Fatal(err)
		}
		if err := fleet.SetReplicas(name, replicas); err != nil {
			t.Fatal(err)
		}
	}
	if err := fleet.Replan(); err != nil {
		t.Fatal(err)
	}
	sched := sti.NewScheduler(fleet, opts)
	t.Cleanup(sched.Close)
	ts := httptest.NewServer(newServer(fleet, sched, nil))
	t.Cleanup(ts.Close)
	return ts, fleet
}

// TestStatsExposeReplicas: /v1/stats reports the replica count, the
// per-replica served counters and the single-flight dedup counters of
// a replicated model.
func TestStatsExposeReplicas(t *testing.T) {
	ts, _ := buildReplicatedServer(t, 2, sti.ServeOptions{Workers: 4})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := postJSON(t, ts.URL+"/v2/infer", map[string]any{
				"model": "sentiment", "text": fmt.Sprintf("request %d", 0),
			})
			if status != http.StatusOK {
				t.Errorf("infer status %d: %s", status, body)
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Replicas         int    `json:"replicas"`
		SingleflightHits uint64 `json:"singleflight_hits"`
		Models           []struct {
			Model            string   `json:"model"`
			Replicas         int      `json:"replicas"`
			ReplicaServed    []uint64 `json:"replica_served"`
			SingleflightHits uint64   `json:"singleflight_hits"`
		} `json:"models"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("decoding stats %s: %v", raw, err)
	}
	var sentiment *struct {
		Model            string   `json:"model"`
		Replicas         int      `json:"replicas"`
		ReplicaServed    []uint64 `json:"replica_served"`
		SingleflightHits uint64   `json:"singleflight_hits"`
	}
	for i := range stats.Models {
		if stats.Models[i].Model == "sentiment" {
			sentiment = &stats.Models[i]
		}
	}
	if sentiment == nil {
		t.Fatalf("no sentiment model in stats: %s", raw)
	}
	if sentiment.Replicas != 2 {
		t.Fatalf("sentiment replicas %d, want 2: %s", sentiment.Replicas, raw)
	}
	if len(sentiment.ReplicaServed) != 2 {
		t.Fatalf("per-replica served %v, want 2 entries: %s", sentiment.ReplicaServed, raw)
	}
	var total uint64
	for _, s := range sentiment.ReplicaServed {
		total += s
	}
	if total != 8 {
		t.Fatalf("per-replica served sums to %d, want 8: %s", total, raw)
	}
	if stats.Replicas < 2 {
		t.Fatalf("aggregate replicas %d, want >= 2: %s", stats.Replicas, raw)
	}
	// Zero preload budget per store in this fixture is impossible (the
	// fleet grants bytes), but repeated identical plans re-stream any
	// non-preloaded shards: the shared cache must absorb repeats.
	if sentiment.SingleflightHits == 0 {
		t.Fatalf("no single-flight hits after 8 streamed requests: %s", raw)
	}
}
