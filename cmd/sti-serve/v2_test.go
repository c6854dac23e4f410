package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"sti"
	"sti/internal/model"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// postSSE posts a JSON body and parses the SSE response stream.
func postSSE(t testing.TB, url string, body any) (int, string, []sseEvent) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Content-Type"), readSSE(t, resp.Body)
}

// readSSE parses a server-sent event stream to its end.
func readSSE(t testing.TB, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestServerV2GenerateSSE drives the acceptance curl end-to-end:
// task=generate streams one SSE token event per decoded token followed
// by a done event carrying the full sequence and stream stats.
func TestServerV2GenerateSSE(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")
	const maxNew = 6
	status, ctype, events := postSSE(t, ts.url+"/v2/infer", map[string]any{
		"model": "sentiment", "task": "generate",
		"text": "once upon a time", "max_new_tokens": maxNew,
	})
	if status != http.StatusOK {
		t.Fatalf("generate status %d", status)
	}
	if !strings.HasPrefix(ctype, "text/event-stream") {
		t.Fatalf("content type %q, want text/event-stream", ctype)
	}
	if len(events) != maxNew+1 {
		t.Fatalf("got %d events (%v), want %d tokens + done", len(events), events, maxNew)
	}
	var streamed []int
	for i, ev := range events[:maxNew] {
		if ev.name != "token" {
			t.Fatalf("event %d is %q, want token", i, ev.name)
		}
		var te tokenEvent
		if err := json.Unmarshal([]byte(ev.data), &te); err != nil {
			t.Fatal(err)
		}
		if te.Step != i {
			t.Fatalf("token event %d has step %d", i, te.Step)
		}
		streamed = append(streamed, te.Token)
	}
	last := events[maxNew]
	if last.name != "done" {
		t.Fatalf("final event %q, want done", last.name)
	}
	var done generateResult
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.NewTokens != maxNew || len(done.Tokens) != done.PromptTokens+maxNew {
		t.Fatalf("done %+v, want %d new tokens", done, maxNew)
	}
	if done.BytesRead == 0 {
		t.Fatal("generate stream reported no shard IO; the elastic stream must be accounted")
	}
	// The streamed tokens are exactly the tail of the final sequence.
	for i, tok := range streamed {
		if done.Tokens[done.PromptTokens+i] != tok {
			t.Fatalf("streamed token %d = %d, done sequence has %d", i, tok, done.Tokens[done.PromptTokens+i])
		}
	}
	// A second identical request decodes the identical sequence (greedy
	// decoding from the same shards is deterministic).
	_, _, events2 := postSSE(t, ts.url+"/v2/infer", map[string]any{
		"model": "sentiment", "task": "generate",
		"text": "once upon a time", "max_new_tokens": maxNew,
	})
	var done2 generateResult
	if err := json.Unmarshal([]byte(events2[len(events2)-1].data), &done2); err != nil {
		t.Fatal(err)
	}
	for i := range done.Tokens {
		if done.Tokens[i] != done2.Tokens[i] {
			t.Fatalf("generate is not deterministic: %v vs %v", done.Tokens, done2.Tokens)
		}
	}

	// Generated tokens are visible in the stats snapshot.
	st := statsOf(t, ts.url)
	if st.GeneratedTokens != 2*maxNew {
		t.Fatalf("stats generated_tokens %d, want %d", st.GeneratedTokens, 2*maxNew)
	}
}

func TestServerV2GenerateValidation(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")
	for _, tc := range []struct {
		name string
		body map[string]any
		want int
	}{
		{"inputs rejected", map[string]any{"model": "sentiment", "task": "generate",
			"inputs": []map[string]any{{"text": "a"}, {"text": "b"}}}, http.StatusBadRequest},
		{"missing prompt", map[string]any{"model": "sentiment", "task": "generate"}, http.StatusBadRequest},
		{"unknown model", map[string]any{"model": "absent", "task": "generate", "text": "hi"}, http.StatusNotFound},
	} {
		if status, data := postJSON(t, ts.url+"/v2/infer", tc.body); status != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.want, data)
		}
	}
}

// BenchmarkGenerateServe measures generate tokens/sec through the real
// /v2 HTTP path (SSE, scheduler, fleet, pipeline, KV-cached decoder)
// against naive single-pass decoding (recomputing the whole prefix per
// token) on an equivalent submodel — the speedup the Decoder's KV
// cache buys the serving path.
func BenchmarkGenerateServe(b *testing.B) {
	dir := b.TempDir()
	w := sti.NewRandomModel(sti.TinyConfig(), 7)
	if _, err := sti.Preprocess(dir, w, []int{2, 4}); err != nil {
		b.Fatal(err)
	}
	ts := startServer(b, "-model", "m="+dir, "-slack", "1000")

	const maxNew = 8
	prompt := []int{1, 17, 23}
	body, _ := json.Marshal(map[string]any{
		"model": "m", "task": "generate", "tokens": prompt, "max_new_tokens": maxNew,
	})

	b.Run("v2-kvcached", func(b *testing.B) {
		var tokens int
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.url+"/v2/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d: %v", resp.StatusCode, err)
			}
			tokens += maxNew
		}
		b.ReportMetric(float64(tokens)/b.Elapsed().Seconds(), "tok/s")
	})

	b.Run("naive-uncached", func(b *testing.B) {
		// The same geometry decoded without the KV cache: every token
		// recomputes the full prefix (O(n²) layer passes).
		sm, err := model.NewSubmodel(w, w.Cfg.Layers, w.Cfg.Heads)
		if err != nil {
			b.Fatal(err)
		}
		var tokens int
		for i := 0; i < b.N; i++ {
			if _, err := sm.Generate(prompt, maxNew); err != nil {
				b.Fatal(err)
			}
			tokens += maxNew
		}
		b.ReportMetric(float64(tokens)/b.Elapsed().Seconds(), "tok/s")
	})
}
