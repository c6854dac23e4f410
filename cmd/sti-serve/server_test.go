package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sti"
	"sti/internal/httpserve"
	"sti/internal/obs/obshttp"
)

// The /v2/infer wire shapes, as a client writes and reads them.
type inferInput struct {
	Text   string `json:"text,omitempty"`
	Tokens []int  `json:"tokens,omitempty"`
	Mask   []bool `json:"mask,omitempty"`
}

type inferRequest struct {
	Model string `json:"model"`
	Task  string `json:"task,omitempty"`
	inferInput
	Inputs []inferInput `json:"inputs,omitempty"`
}

type inferResult struct {
	Class    int       `json:"class"`
	Logits   []float32 `json:"logits,omitempty"`
	TotalMS  float64   `json:"total_ms"`
	TierMS   float64   `json:"tier_ms,omitempty"`
	Fidelity float64   `json:"fidelity,omitempty"`
	Error    string    `json:"error,omitempty"`
}

type inferResponse struct {
	Model string `json:"model"`
	inferResult
}

type batchResponse struct {
	Model   string        `json:"model"`
	Results []inferResult `json:"results"`
}

type tokenEvent struct {
	Step  int `json:"step"`
	Token int `json:"token"`
}

type generateResult struct {
	Tokens       []int `json:"tokens"`
	PromptTokens int   `json:"prompt_tokens"`
	NewTokens    int   `json:"new_tokens"`
	BytesRead    int64 `json:"bytes_read"`
}

// buildModelDirs preprocesses one tiny store per model. Servers that
// load the same dir hold byte-identical shard payloads, so a peer's
// retained copy substitutes exactly for a local flash read.
func buildModelDirs(t testing.TB, names ...string) map[string]string {
	t.Helper()
	dirs := make(map[string]string, len(names))
	for i, name := range names {
		dir := t.TempDir()
		w := sti.NewRandomModel(sti.TinyConfig(), int64(i+1))
		if _, err := sti.Preprocess(dir, w, []int{2, 4}); err != nil {
			t.Fatal(err)
		}
		dirs[name] = dir
	}
	return dirs
}

// modelArgs is one -model flag per store, in name order.
func modelArgs(dirs map[string]string) []string {
	names := make([]string, 0, len(dirs))
	for name := range dirs {
		names = append(names, name)
	}
	sort.Strings(names)
	var args []string
	for _, name := range names {
		args = append(args, "-model", name+"="+dirs[name])
	}
	return args
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// testServer is one running sti-serve: cancel starts its drain, as
// SIGTERM does, and stop waits for Run to return.
type testServer struct {
	addr   string
	url    string
	cancel context.CancelFunc
	done   chan struct{}
	err    error // Run's result, once done is closed
}

func (s *testServer) stop() error {
	s.cancel()
	<-s.done
	return s.err
}

// startServer runs what the binary runs for args — parseFlags, then
// httpserve.Run — on a loopback port (unless args name one), waits
// until /healthz answers, and drains the server when the test ends.
func startServer(t testing.TB, args ...string) *testServer {
	t.Helper()
	if !slices.Contains(args, "-addr") {
		args = append(args, "-addr", freeAddr(t))
	}
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &testServer{addr: cfg.Addr, url: "http://" + cfg.Addr, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.err = httpserve.Run(ctx, cfg)
	}()
	t.Cleanup(func() {
		if err := s.stop(); err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		select {
		case <-s.done:
			t.Fatalf("Run returned before serving: %v", s.err)
		default:
		}
		if resp, err := http.Get(s.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never answered /healthz")
		}
	}
}

// startFleet serves two tiny models — the ≥2-model setting the serving
// layer must multiplex — with the binary's defaults plus args.
func startFleet(t testing.TB, args ...string) *testServer {
	t.Helper()
	return startServer(t, append(modelArgs(buildModelDirs(t, "sentiment", "nextword")), args...)...)
}

func postJSON(t testing.TB, url string, body any) (int, []byte) {
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
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// statsOf reads a server's /v1/stats.
func statsOf(t testing.TB, url string) sti.ServeStats {
	t.Helper()
	var st sti.ServeStats
	if status := getJSON(t, url+"/v1/stats", &st); status != http.StatusOK {
		t.Fatalf("GET %s/v1/stats: status %d", url, status)
	}
	return st
}

func TestServerInferStatsHealthz(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")

	status, data := postJSON(t, ts.url+"/v2/infer",
		inferRequest{Model: "sentiment", inferInput: inferInput{Text: "wonderful gripping story"}})
	if status != http.StatusOK {
		t.Fatalf("infer status %d: %s", status, data)
	}
	var ir inferResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Model != "sentiment" || len(ir.Logits) != sti.TinyConfig().Classes {
		t.Fatalf("bad infer response %+v", ir)
	}
	if ir.TotalMS <= 0 || ir.Class < 0 || ir.Class >= len(ir.Logits) {
		t.Fatalf("bad infer response %+v", ir)
	}

	st := statsOf(t, ts.url)
	if st.Completed != 1 || len(st.Models) != 1 || st.Models[0].Model != "sentiment" {
		t.Fatalf("stats %+v, want 1 completed on sentiment", st)
	}

	hresp, err := http.Get(ts.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hz struct {
		OK     bool     `json:"ok"`
		Models []string `json:"models"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || len(hz.Models) != 2 {
		t.Fatalf("healthz %+v", hz)
	}
}

func TestServerRawTokens(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")
	status, data := postJSON(t, ts.url+"/v2/infer",
		inferRequest{Model: "nextword", inferInput: inferInput{Tokens: []int{1, 5, 6, 2}}})
	if status != http.StatusOK {
		t.Fatalf("infer status %d: %s", status, data)
	}
}

func TestServerErrorMapping(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")
	for _, tc := range []struct {
		name string
		body any
		want int
	}{
		{"unknown model", inferRequest{Model: "absent", inferInput: inferInput{Text: "hi"}}, http.StatusNotFound},
		{"missing model", inferRequest{inferInput: inferInput{Text: "hi"}}, http.StatusBadRequest},
		{"missing input", inferRequest{Model: "sentiment"}, http.StatusBadRequest},
		{"unknown task", inferRequest{Model: "sentiment", Task: "translate", inferInput: inferInput{Text: "hi"}}, http.StatusBadRequest},
		{"negative budget", map[string]int64{"budget_bytes": -1}, http.StatusBadRequest},
		{"token out of vocab", inferRequest{Model: "sentiment", inferInput: inferInput{Tokens: []int{999999999}}}, http.StatusBadRequest},
		{"negative token", inferRequest{Model: "sentiment", inferInput: inferInput{Tokens: []int{-5}}}, http.StatusBadRequest},
		{"oversized sequence", inferRequest{Model: "sentiment", inferInput: inferInput{Tokens: make([]int, 10000)}}, http.StatusBadRequest},
		{"mask length mismatch", inferRequest{Model: "sentiment", inferInput: inferInput{Tokens: []int{1, 2}, Mask: []bool{true}}}, http.StatusBadRequest},
	} {
		url := ts.url + "/v2/infer"
		if tc.name == "negative budget" {
			url = ts.url + "/v1/budget"
		}
		if status, data := postJSON(t, url, tc.body); status != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.want, data)
		}
	}
	resp, err := http.Post(ts.url+"/v2/infer", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: status %d", resp.StatusCode)
	}
	// /v2/infer is the only inference route.
	body := inferRequest{Model: "sentiment", inferInput: inferInput{Text: "hi"}}
	if status, data := postJSON(t, ts.url+"/v1/infer", body); status != http.StatusNotFound {
		t.Errorf("POST /v1/infer: status %d (want 404): %s", status, data)
	}
}

// TestServerBatchedInfer drives a multi-input body end-to-end: per-
// input results come back in order, classes match the single-input
// path, and the scheduler's batch stats become visible in /v1/stats.
func TestServerBatchedInfer(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")
	texts := []string{"wonderful gripping story", "dreadful boring mess", "fine either way"}

	// Reference classes via the single-input API.
	want := make([]int, len(texts))
	for i, text := range texts {
		status, data := postJSON(t, ts.url+"/v2/infer", inferRequest{
			Model: "sentiment", inferInput: inferInput{Text: text}})
		if status != http.StatusOK {
			t.Fatalf("single infer status %d: %s", status, data)
		}
		var ir inferResponse
		if err := json.Unmarshal(data, &ir); err != nil {
			t.Fatal(err)
		}
		want[i] = ir.Class
	}

	inputs := make([]inferInput, len(texts))
	for i, text := range texts {
		inputs[i] = inferInput{Text: text}
	}
	status, data := postJSON(t, ts.url+"/v2/infer", inferRequest{Model: "sentiment", Inputs: inputs})
	if status != http.StatusOK {
		t.Fatalf("batched infer status %d: %s", status, data)
	}
	var br batchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Model != "sentiment" || len(br.Results) != len(texts) {
		t.Fatalf("batched response %+v, want %d results", br, len(texts))
	}
	for i, res := range br.Results {
		if res.Error != "" {
			t.Fatalf("result %d error: %s", i, res.Error)
		}
		if res.Class != want[i] {
			t.Fatalf("result %d class %d, want %d (batched logits must match single)", i, res.Class, want[i])
		}
	}

	st := statsOf(t, ts.url)
	// The 3 singles are one execution each; the 3 batched inputs take
	// between 1 and 3 executions depending on accumulator timing, so
	// the deterministic bound is 4..6 (batch-vs-execution determinism
	// itself is pinned by the gated tests in internal/serve).
	if st.Completed != uint64(2*len(texts)) || st.Batches < 4 || st.Batches > 6 {
		t.Fatalf("stats %+v, want %d completed over 4..6 executions", st, 2*len(texts))
	}
}

func TestServerBatchedInferValidatesInputs(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")
	status, data := postJSON(t, ts.url+"/v2/infer", inferRequest{
		Model:  "sentiment",
		Inputs: []inferInput{{Text: "fine"}, {Tokens: []int{-3}}},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("invalid batched input: status %d (want 400): %s", status, data)
	}
	// One body must not burst past the admission queue's shedding.
	huge := make([]inferInput, 65) // one past the per-body input limit
	for i := range huge {
		huge[i] = inferInput{Text: "x"}
	}
	status, data = postJSON(t, ts.url+"/v2/infer", inferRequest{Model: "sentiment", Inputs: huge})
	if status != http.StatusBadRequest {
		t.Fatalf("oversized input list: status %d (want 400): %s", status, data)
	}
}

// TestServerEmptyMaskMatchesMaskless sends "mask": [] (which the
// omitempty wire type never marshals, so the bodies are raw JSON) alone
// and next to a maskless input in one body. An empty mask means all
// positions are valid: every input must return 200 with the maskless
// request's logits, and must not fail the batch it joins.
func TestServerEmptyMaskMatchesMaskless(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")
	logits := func(body string) [][]float32 {
		t.Helper()
		status, data := postJSON(t, ts.url+"/v2/infer", json.RawMessage(body))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, status, data)
		}
		var br batchResponse
		if err := json.Unmarshal(data, &br); err != nil {
			t.Fatal(err)
		}
		if br.Results == nil {
			var ir inferResponse
			if err := json.Unmarshal(data, &ir); err != nil {
				t.Fatal(err)
			}
			br.Results = []inferResult{ir.inferResult}
		}
		out := make([][]float32, len(br.Results))
		for i, res := range br.Results {
			if res.Error != "" {
				t.Fatalf("%s: result %d error: %s", body, i, res.Error)
			}
			out[i] = res.Logits
		}
		return out
	}
	want := logits(`{"model":"sentiment","tokens":[1,5,6,2]}`)[0]
	for _, body := range []string{
		`{"model":"sentiment","tokens":[1,5,6,2],"mask":[]}`,
		`{"model":"sentiment","inputs":[{"tokens":[1,5,6,2],"mask":[]},{"tokens":[1,5,6,2]}]}`,
	} {
		for i, got := range logits(body) {
			if !slices.Equal(got, want) {
				t.Fatalf("%s: result %d logits %v, want the maskless %v", body, i, got, want)
			}
		}
	}
}

func TestServerBudgetReplanLive(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")

	newBudget := int64(64 << 10)
	status, data := postJSON(t, ts.url+"/v1/budget", map[string]int64{"budget_bytes": newBudget})
	if status != http.StatusOK {
		t.Fatalf("budget status %d: %s", status, data)
	}
	var resp struct {
		PreloadBytes int64 `json:"preload_bytes"`
		Grants       []struct {
			Model       string `json:"model"`
			BudgetBytes int64  `json:"budget_bytes"`
		} `json:"grants"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Grants) != 2 {
		t.Fatalf("grants %+v", resp.Grants)
	}
	var granted int64
	for _, g := range resp.Grants {
		granted += g.BudgetBytes
	}
	if granted > newBudget {
		t.Fatalf("granted %d over budget %d", granted, newBudget)
	}
	if resp.PreloadBytes > newBudget {
		t.Fatalf("preload %d over budget %d", resp.PreloadBytes, newBudget)
	}

	// Inference still works under the shrunk plans.
	if status, data := postJSON(t, ts.url+"/v2/infer",
		inferRequest{Model: "sentiment", inferInput: inferInput{Text: "still serving"}}); status != http.StatusOK {
		t.Fatalf("post-replan infer status %d: %s", status, data)
	}
}

// TestServerConcurrentClients is the acceptance race check: ≥8
// concurrent clients drive ≥2 fleet models through the real handler
// path (run with -race). Shedding (503/504) is admission control, not
// failure — but most requests must succeed, and a replan in the middle
// must not corrupt anything.
func TestServerConcurrentClients(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")

	const clients = 8
	const perClient = 6
	models := []string{"sentiment", "nextword"}
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				status, data := postJSON(t, ts.url+"/v2/infer", inferRequest{
					Model:      models[(c+i)%len(models)],
					inferInput: inferInput{Text: fmt.Sprintf("request %d from client %d", i, c)},
				})
				switch status {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					shed.Add(1)
				default:
					t.Errorf("client %d: status %d: %s", c, status, data)
					return
				}
			}
		}(c)
	}
	// A live replan racing the clients — the fleet must quiesce, swap
	// plans, and keep serving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Post(ts.url+"/v1/budget", "application/json", strings.NewReader(`{"budget_bytes":131072}`))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("live replan: status %d", resp.StatusCode)
		}
	}()
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no request succeeded under concurrency")
	}
	st := statsOf(t, ts.url)
	if int64(st.Completed) != ok.Load() {
		t.Fatalf("stats completed %d, clients saw %d ok (%d shed)", st.Completed, ok.Load(), shed.Load())
	}
	if len(st.Models) != 2 {
		t.Fatalf("stats models %+v, want both driven", st.Models)
	}
}

// TestServerBodyLimit pins both sides of the /v2/infer body bound: a
// body past 1 MiB is refused with 413 before it is decoded, and the
// largest body the input limits admit — 64 inputs of maxSeq token ids,
// each with a mask — is still served.
func TestServerBodyLimit(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")

	huge := `{"model":"sentiment","tokens":[1` + strings.Repeat(",1", 1<<20) + `]}`
	resp, err := http.Post(ts.url+"/v2/infer", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
		t.Fatalf("%d-byte body: status %d, error %q (decode err %v), want 413 with a JSON error", len(huge), resp.StatusCode, e.Error, err)
	}

	cfg := sti.TinyConfig()
	inputs := make([]inferInput, 64)
	for i := range inputs {
		in := inferInput{Tokens: make([]int, cfg.MaxSeq), Mask: make([]bool, cfg.MaxSeq)}
		for j := range in.Tokens {
			in.Tokens[j], in.Mask[j] = cfg.Vocab-1, true
		}
		inputs[i] = in
	}
	if status, data := postJSON(t, ts.url+"/v2/infer", inferRequest{Model: "sentiment", Inputs: inputs}); status != http.StatusOK {
		t.Fatalf("64 maxSeq inputs with masks: status %d: %s", status, data)
	}
}

// TestPostBodiesShareOneBound sends every POST route of a node and a
// router an over-limit body and a malformed one: each answers 413 and
// 400 in the JSON error shape, under the one obshttp.MaxBodyBytes
// bound. The refused bodies reach neither a node's scheduler nor its
// budget, while the same budget request under the bound replans.
func TestPostBodiesShareOneBound(t *testing.T) {
	dirs := buildModelDirs(t, "sentiment")
	router, nodes := buildCluster(t, []string{"a"}, dirs, "-slack", "1000", "-draingrace", "0")
	node := nodes["a"].url
	budget := func() string {
		for _, line := range strings.Split(string(getBody(t, node+"/metrics")), "\n") {
			if v, ok := strings.CutPrefix(line, "sti_fleet_budget_bytes "); ok {
				return v
			}
		}
		t.Fatal("/metrics lacks sti_fleet_budget_bytes")
		return ""
	}
	before := budget()
	small := `{"budget_bytes":65536,"model":"sentiment","text":"x"}`
	huge := strings.Replace(small, `"x"`, `"`+strings.Repeat("x", obshttp.MaxBodyBytes)+`"`, 1)
	for _, url := range []string{
		router.URL + "/v2/infer",
		node + "/v2/infer",
		node + "/v1/budget",
	} {
		for _, tc := range []struct {
			body string
			want int
		}{
			{huge, http.StatusRequestEntityTooLarge},
			{`{"model":`, http.StatusBadRequest},
		} {
			resp, err := http.Post(url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var e struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != tc.want || err != nil || e.Error == "" {
				t.Errorf("POST %s with a %d-byte body: status %d, error %q (decode err %v), want %d with a JSON error",
					url, len(tc.body), resp.StatusCode, e.Error, err, tc.want)
			}
		}
	}
	if status, _ := postJSON(t, node+"/cluster/observe", json.RawMessage(small)); status != http.StatusNotFound {
		t.Errorf("POST /cluster/observe: status %d, want 404 (the route is gone)", status)
	}
	if n := statsOf(t, node).Completed; n != 0 {
		t.Errorf("node completed %d requests; the router forwarded a refused body", n)
	}
	if got := budget(); got != before {
		t.Fatalf("a refused /v1/budget body moved the budget %s -> %s", before, got)
	}
	if status, data := postJSON(t, node+"/v1/budget", json.RawMessage(small)); status != http.StatusOK {
		t.Fatalf("budget body under the bound: status %d: %s", status, data)
	}
	if got := budget(); got != "65536" {
		t.Fatalf("budget after replan %s, want 65536", got)
	}
}

// slowPost starts a POST whose handler is already running but whose
// body is not complete: it returns once the server has asked for the
// body (100 Continue), and finish sends the rest. The response arrives
// on the returned channel.
func slowPost(t *testing.T, url, body string) (finish func(), resp <-chan *http.Response) {
	t.Helper()
	pr, pw := io.Pipe()
	started := make(chan struct{})
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		Got100Continue: func() { close(started) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Expect", "100-continue")
	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: time.Minute}}
	out := make(chan *http.Response, 1)
	go func() {
		r, err := client.Do(req)
		if err != nil {
			t.Error(err)
		}
		out <- r
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("server never asked for the request body")
	}
	return func() {
		if _, err := io.WriteString(pw, body); err != nil {
			t.Error(err)
		}
		pw.Close()
	}, out
}

// TestRunDrainsInFlight is the "drains never shed" invariant through the
// lifecycle the binary ships: Run's context ends while a classify and an
// SSE generate are in flight, and both still complete with 200 before
// Run returns nil.
func TestRunDrainsInFlight(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")

	const maxNew = 8
	finishClassify, classify := slowPost(t, ts.url+"/v2/infer", `{"model":"sentiment","text":"wonderful gripping story"}`)
	finishGenerate, generate := slowPost(t, ts.url+"/v2/infer",
		fmt.Sprintf(`{"model":"sentiment","task":"generate","text":"once upon","max_new_tokens":%d}`, maxNew))

	ts.cancel()
	// The drain has begun once the listener refuses new connections.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		conn, err := net.Dial("tcp", ts.addr)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after the drain began")
		}
	}
	finishClassify()
	finishGenerate()

	cr := <-classify
	if cr == nil {
		t.Fatal("classify got no response")
	}
	var ir inferResponse
	err := json.NewDecoder(cr.Body).Decode(&ir)
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK || err != nil || len(ir.Logits) != sti.TinyConfig().Classes {
		t.Fatalf("classify during drain: status %d, %+v (decode err %v)", cr.StatusCode, ir, err)
	}
	gr := <-generate
	if gr == nil {
		t.Fatal("generate got no response")
	}
	events := readSSE(t, gr.Body)
	gr.Body.Close()
	if gr.StatusCode != http.StatusOK || len(events) != maxNew+1 || events[maxNew].name != "done" {
		t.Fatalf("generate during drain: status %d, events %v, want %d tokens then done", gr.StatusCode, events, maxNew)
	}
	if err := ts.stop(); err != nil {
		t.Fatalf("Run after the drain: %v", err)
	}
}
