package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestStatsExposeReplicas: /v1/stats reports the replica count, the
// per-replica served counters and the single-flight dedup counters of
// a replicated model.
func TestStatsExposeReplicas(t *testing.T) {
	ts := startFleet(t, "-replicas", "2")

	// Two waves of four concurrent requests: a wave may ride one batch,
	// so the second wave is what repeats the first one's shard stream.
	for wave := 0; wave < 2; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, body := postJSON(t, ts.url+"/v2/infer", map[string]any{
					"model": "sentiment", "text": fmt.Sprintf("request %d", 0),
				})
				if status != http.StatusOK {
					t.Errorf("infer status %d: %s", status, body)
				}
			}()
		}
		wg.Wait()
	}

	resp, err := http.Get(ts.url + "/v1/stats")
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
	// non-preloaded shards: the shared cache must absorb the second
	// wave's repeats. (The model's one buffer is warmed once, so the
	// warm itself reads each payload once and hits nothing.)
	if sentiment.SingleflightHits == 0 {
		t.Fatalf("no single-flight hits after 8 streamed requests: %s", raw)
	}
}
