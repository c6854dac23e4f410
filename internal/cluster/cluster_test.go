package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sti/internal/store"
)

// fakeNode is a scripted sti-serve node: classify answers identify the
// node, generate streams SSE tokens, health and cluster endpoints are
// the real wire shapes.
type fakeNode struct {
	name string

	mu         sync.Mutex
	draining   bool
	shed       bool                        // answer 503 to classify/generate
	statsFn    func(w http.ResponseWriter) // overrides the /v1/stats answer
	served     atomic.Int64
	generating atomic.Int64
	ctxDone    chan struct{} // closed when a generate handler's ctx is canceled

	srv *httptest.Server
}

func newFakeNode(name string) *fakeNode {
	f := &fakeNode{name: name, ctxDone: make(chan struct{}, 8)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/infer", f.handleInfer)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		d := f.draining
		f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"ok": true, "draining": d})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		fn := f.statsFn
		f.mu.Unlock()
		if fn != nil {
			fn(w)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"completed": f.served.Load()})
	})
	f.srv = httptest.NewServer(mux)
	return f
}

func (f *fakeNode) setDraining(v bool) { f.mu.Lock(); f.draining = v; f.mu.Unlock() }
func (f *fakeNode) setShed(v bool)     { f.mu.Lock(); f.shed = v; f.mu.Unlock() }

func (f *fakeNode) handleInfer(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	shed := f.shed
	f.mu.Unlock()
	if shed {
		http.Error(w, "queue full", http.StatusServiceUnavailable)
		return
	}
	var req struct {
		Model string `json:"model"`
		Task  string `json:"task"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.served.Add(1)
	if req.Task == "generate" {
		f.generating.Add(1)
		defer f.generating.Add(-1)
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		for i := 0; i < 50; i++ {
			select {
			case <-r.Context().Done():
				f.ctxDone <- struct{}{}
				return
			case <-time.After(2 * time.Millisecond): // one decode step
			}
			fmt.Fprintf(w, "event: token\ndata: {\"step\":%d,\"token\":%d}\n\n", i, 100+i)
			fl.Flush()
		}
		fmt.Fprintf(w, "event: done\ndata: {\"model\":%q,\"served_by\":%q}\n\n", req.Model, f.name)
		fl.Flush()
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"model": req.Model, "served_by": f.name})
}

// testCluster spins up n fake nodes and a router over them with a fast
// health poll.
func testCluster(t *testing.T, n int, opts RouterOptions) (*Router, []*fakeNode) {
	t.Helper()
	var peers []Peer
	var nodes []*fakeNode
	for i := 0; i < n; i++ {
		f := newFakeNode(fmt.Sprintf("n%d", i))
		t.Cleanup(f.srv.Close)
		nodes = append(nodes, f)
		peers = append(peers, Peer{Name: f.name, URL: f.srv.URL})
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 20 * time.Millisecond
	}
	rt, err := NewRouter(peers, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, nodes
}

// modelHomedOn finds a model name whose ring primary is the given node.
func modelHomedOn(t *testing.T, rt *Router, node string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		m := fmt.Sprintf("model-%d", i)
		if p := rt.ring.Place(m); len(p) > 0 && p[0] == node {
			return m
		}
	}
	t.Fatal("no model homed on " + node)
	return ""
}

func postInfer(t *testing.T, url string, body string) (*http.Response, error) {
	t.Helper()
	return http.Post(url+"/v2/infer", "application/json", strings.NewReader(body))
}

func TestRouterForwardsClassifyToHome(t *testing.T) {
	rt, nodes := testCluster(t, 2, RouterOptions{})
	front := httptest.NewServer(rt)
	defer front.Close()

	for _, n := range nodes {
		model := modelHomedOn(t, rt, n.name)
		resp, err := postInfer(t, front.URL, fmt.Sprintf(`{"model":%q,"tokens":[1,2]}`, model))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || got["served_by"] != n.name || got["model"] != model {
			t.Fatalf("status=%d result=%v, want served_by=%s", resp.StatusCode, got, n.name)
		}
	}

	// Unroutable requests are clean client errors, not panics.
	resp, err := postInfer(t, front.URL, `{"tokens":[1]}`)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing model => %d, want 400", resp.StatusCode)
	}

	// /v2/infer is the only inference route.
	resp, err = http.Post(front.URL+"/v1/infer", "application/json",
		strings.NewReader(fmt.Sprintf(`{"model":%q,"tokens":[1,2]}`, modelHomedOn(t, rt, nodes[0].name))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/infer => %d, want 404", resp.StatusCode)
	}
}

// The router reads a body under the same bound as the node it forwards
// to: a 2 MB body, which the node would refuse, is refused at the
// router and never forwarded; a malformed one is a 400, not a 413.
func TestRouterRefusesBodiesPastTheNodeBound(t *testing.T) {
	rt, nodes := testCluster(t, 2, RouterOptions{})
	front := httptest.NewServer(rt)
	defer front.Close()

	model := modelHomedOn(t, rt, nodes[0].name)
	huge := fmt.Sprintf(`{"model":%q,"text":"%s"}`, model, strings.Repeat("x", 2<<20))
	for _, tc := range []struct {
		body string
		want int
	}{
		{huge, http.StatusRequestEntityTooLarge},
		{`{"model":`, http.StatusBadRequest},
	} {
		resp, err := postInfer(t, front.URL, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want || err != nil || e.Error == "" {
			t.Fatalf("%d-byte body: status %d, error %q (decode err %v), want %d with a JSON error",
				len(tc.body), resp.StatusCode, e.Error, err, tc.want)
		}
	}
	for _, n := range nodes {
		if got := n.served.Load(); got != 0 {
			t.Fatalf("node %s saw %d refused bodies", n.name, got)
		}
	}
}

// An absurd target_ms must not overflow the hop-deadline derivation
// into a context that is dead on arrival: the forward has to reach the
// node so the node's own validation verdict is what the client sees.
func TestRouterClampsOversizedTargetForHopDeadline(t *testing.T) {
	rt, nodes := testCluster(t, 2, RouterOptions{})
	front := httptest.NewServer(rt)
	defer front.Close()

	model := modelHomedOn(t, rt, nodes[0].name)
	resp, err := postInfer(t, front.URL,
		fmt.Sprintf(`{"model":%q,"tokens":[1,2],"target_ms":1e13}`, model))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || got["served_by"] != nodes[0].name {
		t.Fatalf("status=%d result=%v, want 200 from %s", resp.StatusCode, got, nodes[0].name)
	}

	for _, ms := range []float64{1e13, maxHopTargetMS, 200, math.NaN(), -5} {
		if w := rt.hopWindow(reqMeta{TargetMS: ms}); w <= 0 {
			t.Fatalf("hopWindow(target_ms=%v) = %v, want positive", ms, w)
		}
	}
}

func TestRouterRetriesShedClassifyOnDifferentNode(t *testing.T) {
	rt, nodes := testCluster(t, 2, RouterOptions{})
	front := httptest.NewServer(rt)
	defer front.Close()

	model := modelHomedOn(t, rt, nodes[0].name)
	nodes[0].setShed(true)

	resp, err := postInfer(t, front.URL, fmt.Sprintf(`{"model":%q,"tokens":[1]}`, model))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]string
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got["served_by"] != nodes[1].name {
		t.Fatalf("status=%d served_by=%q, want the standing replica %s", resp.StatusCode, got["served_by"], nodes[1].name)
	}

	// Generate is not idempotent: a shed is surfaced, never retried.
	before := nodes[1].served.Load()
	resp, err = postInfer(t, front.URL, fmt.Sprintf(`{"model":%q,"task":"generate","tokens":[1]}`, model))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed generate => %d, want 503", resp.StatusCode)
	}
	if nodes[1].served.Load() != before {
		t.Fatal("shed generate was retried on another node")
	}
}

func TestRouterRelaysSSETokensInOrder(t *testing.T) {
	rt, nodes := testCluster(t, 2, RouterOptions{})
	front := httptest.NewServer(rt)
	defer front.Close()

	model := modelHomedOn(t, rt, nodes[0].name)
	resp, err := postInfer(t, front.URL, fmt.Sprintf(`{"model":%q,"task":"generate","tokens":[1]}`, model))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var tokens []int
	var done bool
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			switch event {
			case "token":
				var tok struct{ Step, Token int }
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &tok); err != nil {
					t.Fatal(err)
				}
				if tok.Step != len(tokens) {
					t.Fatalf("step %d arrived as event %d: relay reordered", tok.Step, len(tokens))
				}
				tokens = append(tokens, tok.Token)
			case "done":
				done = true
			}
		}
	}
	if !done || len(tokens) != 50 {
		t.Fatalf("done=%v tokens=%d, want full in-order stream of 50", done, len(tokens))
	}
}

func TestRouterClientDisconnectCancelsUpstream(t *testing.T) {
	rt, nodes := testCluster(t, 2, RouterOptions{})
	front := httptest.NewServer(rt)
	defer front.Close()

	model := modelHomedOn(t, rt, nodes[0].name)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v2/infer",
		strings.NewReader(fmt.Sprintf(`{"model":%q,"task":"generate","tokens":[1]}`, model)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read a couple of events, then vanish.
	buf := make([]byte, 64)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The node's handler context must die within ~a decode step, not
	// at stream end (50 steps × 2ms) or the hop deadline.
	select {
	case <-nodes[0].ctxDone:
	case <-time.After(2 * time.Second):
		t.Fatal("upstream generate kept running after client disconnect")
	}
}

func TestRouterStopsRoutingToDrainingNode(t *testing.T) {
	rt, nodes := testCluster(t, 2, RouterOptions{})
	front := httptest.NewServer(rt)
	defer front.Close()

	model := modelHomedOn(t, rt, nodes[0].name)
	nodes[0].setDraining(true)
	deadline := time.Now().Add(5 * time.Second)
	for rt.ring.Available(nodes[0].name) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rt.ring.Available(nodes[0].name) {
		t.Fatal("health poll never observed the draining node")
	}

	for i := 0; i < 5; i++ {
		resp, err := postInfer(t, front.URL, fmt.Sprintf(`{"model":%q,"tokens":[1]}`, model))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]string
		json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if got["served_by"] != nodes[1].name {
			t.Fatalf("request %d served by %q while %s drains", i, got["served_by"], nodes[0].name)
		}
	}

	// Drain complete → node returns; traffic goes home again.
	nodes[0].setDraining(false)
	for !rt.ring.Available(nodes[0].name) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := postInfer(t, front.URL, fmt.Sprintf(`{"model":%q,"tokens":[1]}`, model))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]string
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got["served_by"] != nodes[0].name {
		t.Fatalf("served by %q after recovery, want %s", got["served_by"], nodes[0].name)
	}

	// Router stats reflect the member table.
	st := rt.Stats(context.Background())
	if len(st.Nodes) != 2 || st.Mode != "router" {
		t.Fatalf("stats %+v", st)
	}
	if st.Placements[model] == nil {
		t.Fatalf("stats missing placement for %s", model)
	}
}

// fakeBackend implements NodeBackend over in-memory shard payloads.
type fakeBackend struct {
	names []string

	mu       sync.Mutex
	payloads map[[3]int][]byte
	fetch    map[string]store.PeerFetch
}

func newFakeBackend(names ...string) *fakeBackend {
	return &fakeBackend{
		names:    names,
		payloads: make(map[[3]int][]byte),
		fetch:    make(map[string]store.PeerFetch),
	}
}

func (b *fakeBackend) Names() []string { return b.names }

func (b *fakeBackend) PeekShardPayload(model string, layer, slice, bits int) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.payloads[[3]int{layer, slice, bits}]
	return p, ok
}

func (b *fakeBackend) SetPeerFetch(model string, fn store.PeerFetch) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fetch[model] = fn
	return nil
}

// TestNodePeerFetchAndEndpoints: node B's installed peer fetcher pulls
// a payload node A has retained, via A's /cluster/shard endpoint; a
// payload nobody retains is a miss; the donor endpoint answers its
// errors in the JSON error shape; /cluster/shard is the node's only
// route.
func TestNodePeerFetchAndEndpoints(t *testing.T) {
	backendA := newFakeBackend("m")
	backendA.payloads[[3]int{3, 1, 4}] = []byte{0xde, 0xad}
	nodeA, err := NewNode(backendA, "a", []Peer{{Name: "a", URL: "http://stub"}})
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(nodeA.Handler())
	defer srvA.Close()

	backendB := newFakeBackend("m")
	peers := []Peer{{Name: "a", URL: srvA.URL}, {Name: "b", URL: "http://unused"}}
	nodeB, err := NewNode(backendB, "b", peers)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	fetch := backendB.fetch["m"]
	if fetch == nil {
		t.Fatal("NewNode did not install the peer fetcher")
	}
	if p, ok := fetch(3, 1, 4); !ok || string(p) != "\xde\xad" {
		t.Fatalf("peer fetch = %v, %v; want node A's retained payload", p, ok)
	}
	if _, ok := fetch(9, 9, 9); ok {
		t.Fatal("peer fetch fabricated a payload nobody retains")
	}

	// The donor endpoint answers junk coordinates and unretained
	// payloads in the JSON error shape.
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"model=m&layer=x&slice=0&bits=4", http.StatusBadRequest},
		{"model=m&layer=9&slice=9&bits=9", http.StatusNotFound},
	} {
		resp, err := http.Get(srvA.URL + "/cluster/shard?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want || err != nil || e.Error == "" {
			t.Fatalf("%s => %d %q (decode: %v), want %d with a JSON error", tc.query, resp.StatusCode, e.Error, err, tc.want)
		}
	}

	// Arrival replay is gone: no /cluster/observe.
	resp, err := http.Post(srvA.URL+"/cluster/observe", "application/json",
		strings.NewReader(`{"model":"m","target_ms":150,"depth":3,"capacity":64}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /cluster/observe => %d, want 404", resp.StatusCode)
	}

	// Close detaches the peer level.
	nodeB.Close()
	if backendB.fetch["m"] != nil {
		t.Fatal("Close left the peer fetcher installed")
	}
}

// flashReader is a local flash that counts its reads and serves one
// valid payload for every key.
type flashReader struct{ reads atomic.Int64 }

func (r *flashReader) ReadShardPayload(layer, slice, bits int) ([]byte, error) {
	r.reads.Add(1)
	return store.EncodeRawPayload([]float32{1, 2, 3}), nil
}

// validReply returns size bytes that pass store.VerifyPayload.
func validReply(size int) []byte {
	body := make([]byte, size-4)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestNodePeerReplyIsBounded: a donor answering 200 with one byte more
// than maxNodeReply (a payload that would pass its CRC) counts as a
// peer miss, and the shared cache falls through to local flash.
func TestNodePeerReplyIsBounded(t *testing.T) {
	reply := validReply(maxNodeReply + 1)
	donor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(reply)
	}))
	defer donor.Close()
	backend := newFakeBackend("m")
	node, err := NewNode(backend, "b", []Peer{{Name: "a", URL: donor.URL}, {Name: "b", URL: "http://unused"}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	flash := &flashReader{}
	cache := store.NewSharedCache(flash, 0)
	cache.SetPeerFetch(backend.fetch["m"])

	p, err := cache.ReadShardPayload(3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.PeerFetches != 1 || st.PeerHits != 0 || flash.reads.Load() != 1 || len(p) == len(reply) {
		t.Fatalf("oversized peer reply: %d peer fetches, %d peer hits, %d flash reads, %d bytes served; want 1, 0, 1 and the flash payload",
			st.PeerFetches, st.PeerHits, flash.reads.Load(), len(p))
	}
}

// TestGetBoundedCapsReplies pins the bound every cross-member read
// shares: a 200 of exactly maxNodeReply bytes is returned whole, one
// byte more is an error, and so is any other status.
func TestGetBoundedCapsReplies(t *testing.T) {
	for _, tc := range []struct {
		size   int
		status int
		ok     bool
	}{
		{maxNodeReply, http.StatusOK, true},
		{maxNodeReply + 1, http.StatusOK, false},
		{10, http.StatusNotFound, false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tc.status)
			w.Write(make([]byte, tc.size))
		}))
		body, err := getBounded(context.Background(), srv.Client(), time.Minute, srv.URL)
		srv.Close()
		if ok := err == nil && len(body) == tc.size; ok != tc.ok {
			t.Fatalf("%d-byte reply with status %d: %d bytes, err %v; want ok=%v", tc.size, tc.status, len(body), err, tc.ok)
		}
	}
}

// setStats overrides the node's /v1/stats answer.
func (f *fakeNode) setStats(fn func(w http.ResponseWriter)) {
	f.mu.Lock()
	f.statsFn = fn
	f.mu.Unlock()
}

// TestRouterStatsDegradesBadNodeBodies pins the merged-stats contract:
// a member whose /v1/stats answers non-200, or answers 200 with a
// truncated/garbage body, must degrade to a per-member {"error": ...}
// entry — never be inlined verbatim (which would corrupt the whole
// merged JSON document) and never silently vanish.
func TestRouterStatsDegradesBadNodeBodies(t *testing.T) {
	rt, nodes := testCluster(t, 3, RouterOptions{})
	nodes[1].setStats(func(w http.ResponseWriter) {
		http.Error(w, "stats exploded", http.StatusInternalServerError)
	})
	nodes[2].setStats(func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"completed": 12, "models": [`) // truncated mid-array
	})

	st := rt.Stats(context.Background())

	// The merged document must survive a full JSON round trip.
	doc, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshaling merged stats: %v", err)
	}
	if !json.Valid(doc) {
		t.Fatalf("merged stats is not valid JSON: %s", doc)
	}

	for _, f := range nodes {
		if _, ok := st.NodeStats[f.name]; !ok {
			t.Fatalf("node %s missing from NodeStats: %v", f.name, st.NodeStats)
		}
	}
	var healthy struct {
		Completed int    `json:"completed"`
		Error     string `json:"error"`
	}
	if err := json.Unmarshal(st.NodeStats[nodes[0].name], &healthy); err != nil {
		t.Fatalf("healthy node entry: %v", err)
	}
	if healthy.Error != "" {
		t.Fatalf("healthy node degraded to error %q", healthy.Error)
	}
	for _, tc := range []struct {
		node string
		want string
	}{
		{nodes[1].name, "status 500"},
		{nodes[2].name, "not valid JSON"},
	} {
		var got struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(st.NodeStats[tc.node], &got); err != nil {
			t.Fatalf("degraded entry for %s is not an object: %v (%s)", tc.node, err, st.NodeStats[tc.node])
		}
		if !strings.Contains(got.Error, tc.want) {
			t.Fatalf("node %s error = %q, want mention of %q", tc.node, got.Error, tc.want)
		}
	}
}
