package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// getBody fetches url and returns its body, failing on a non-200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestServerWireShape pins every /v1/stats field and /metrics series
// the benchmark's traced run scrapes (bench/traced.go), after one
// classify and one generate: renaming or dropping one fails here
// instead of silently zeroing a benchmark metric.
func TestServerWireShape(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")

	if status, data := postJSON(t, ts.url+"/v2/infer", map[string]any{
		"model": "sentiment", "task": "classify", "text": "wonderful gripping story",
	}); status != http.StatusOK {
		t.Fatalf("classify status %d: %s", status, data)
	}
	if status, _, events := postSSE(t, ts.url+"/v2/infer", map[string]any{
		"model": "sentiment", "task": "generate", "text": "once upon", "max_new_tokens": 2,
	}); status != http.StatusOK || len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("generate status %d, events %v", status, events)
	}

	var st map[string]any
	if err := json.Unmarshal(getBody(t, ts.url+"/v1/stats"), &st); err != nil {
		t.Fatal(err)
	}
	requireKeys := func(where string, obj map[string]any, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if _, ok := obj[k]; !ok {
				t.Errorf("%s lacks %q", where, k)
			}
		}
	}
	requireKeys("/v1/stats", st, "completed", "failed", "shed", "deadline_miss", "batches",
		"downgraded", "plan_cache_hits", "plan_cache_misses", "models")
	models, _ := st["models"].([]any)
	if len(models) != 1 {
		t.Fatalf("/v1/stats models = %v, want the one served model", st["models"])
	}
	m, _ := models[0].(map[string]any)
	requireKeys("/v1/stats models[0]", m, "model", "replica_served", "gen")
	gen, _ := m["gen"].(map[string]any)
	requireKeys("/v1/stats models[0].gen", gen, "gen_steps", "gen_step_sequences",
		"gen_preempted", "gen_recomputed_tokens")

	series := make(map[string]bool)
	lines := bufio.NewScanner(bytes.NewReader(getBody(t, ts.url+"/metrics")))
	for lines.Scan() {
		line := lines.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		series[name] = true
	}
	for _, name := range []string{"sti_preload_cache_bytes", "sti_shard_cache_flash_reads_total",
		"sti_shard_cache_hits_total", "sti_shard_cache_requests_total", "go_gc_cycles_total"} {
		if !series[name] {
			t.Errorf("/metrics lacks series %s", name)
		}
	}
}
