package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"sti/internal/cluster"
	"sti/internal/obs"
	"sti/internal/obs/obshttp"
)

// buildCluster runs nodeNames as real -mode node servers on loopback
// listeners, each serving every store in dirs with args, fronts them
// with a router, and waits until the router's health poll sees every
// node up. The router's 20 ms health poll is a setting no flag has, so
// it is built directly, beside /metrics as httpserve.New mounts it. Listeners are allocated before any node starts
// so the static peer list (identical everywhere, like -peers) carries
// real URLs. Every node starts draining at once when the test ends, so
// their -draingrace windows overlap.
func buildCluster(t testing.TB, nodeNames []string, dirs map[string]string, args ...string) (*httptest.Server, map[string]*testServer) {
	t.Helper()
	addrs := make(map[string]string, len(nodeNames))
	var spec []string
	for _, name := range nodeNames {
		addrs[name] = freeAddr(t)
		spec = append(spec, name+"=http://"+addrs[name])
	}
	peers := strings.Join(spec, ",")
	nodes := make(map[string]*testServer, len(nodeNames))
	for _, name := range nodeNames {
		nodeArgs := append(modelArgs(dirs), "-mode", "node", "-node", name, "-peers", peers,
			"-addr", addrs[name])
		nodes[name] = startServer(t, append(nodeArgs, args...)...)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.cancel()
		}
	})
	parsed, err := cluster.ParsePeers(peers)
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub(32)
	rt, err := cluster.NewRouter(parsed, cluster.RouterOptions{HealthInterval: 20 * time.Millisecond, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", obshttp.Metrics(hub))
	mux.Handle("/", rt)
	rts := httptest.NewServer(mux)
	t.Cleanup(rts.Close)
	want := make(map[string]string, len(nodeNames))
	for _, name := range nodeNames {
		want[name] = "up"
	}
	waitForStates(t, rts.URL, want)
	return rts, nodes
}

// waitForStates polls the router's /healthz until every named node
// reports the wanted state.
func waitForStates(t testing.TB, routerURL string, want map[string]string) {
	t.Helper()
	var last map[string]string
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h struct {
			OK    bool              `json:"ok"`
			Nodes map[string]string `json:"nodes"`
		}
		resp, err := http.Get(routerURL + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
		}
		if err == nil {
			ok := true
			for n, s := range want {
				if h.Nodes[n] != s {
					ok = false
				}
			}
			if ok {
				return
			}
			last = h.Nodes
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never saw states %v (last %v)", want, last)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// homeNodeOf names the node the cluster routed a model's traffic to,
// by completed-request counters after at least one request was served.
func homeNodeOf(t testing.TB, nodes map[string]*testServer, model string) string {
	t.Helper()
	for name, n := range nodes {
		for _, ms := range statsOf(t, n.url).Models {
			if ms.Model == model && ms.Completed > 0 {
				return name
			}
		}
	}
	t.Fatalf("no node served model %q", model)
	return ""
}

func otherNode(nodes map[string]*testServer, not string) string {
	for name := range nodes {
		if name != not {
			return name
		}
	}
	return ""
}

// drainGrace is the -draingrace of a node a test drains: long enough
// that the node still answers the test's checks after its drain began.
const drainGrace = "3s"

// TestClusterMatchesStandalone pins the acceptance contract: a
// two-node cluster behind the router serves classify and streamed
// generate with results identical to a standalone server loaded from
// the same stores — same class, bit-identical logits, same decoded
// token sequence, tokens relayed in order.
func TestClusterMatchesStandalone(t *testing.T) {
	dirs := buildModelDirs(t, "sentiment", "nextword")
	standalone := startServer(t, append(modelArgs(dirs), "-slack", "1000")...)
	router, _ := buildCluster(t, []string{"alpha", "beta"}, dirs, "-slack", "1000", "-draingrace", "0")

	for _, model := range []string{"sentiment", "nextword"} {
		body := map[string]any{"model": model, "task": "classify", "text": "wonderful gripping story"}
		st1, d1 := postJSON(t, standalone.url+"/v2/infer", body)
		st2, d2 := postJSON(t, router.URL+"/v2/infer", body)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("%s: standalone %d (%s), cluster %d (%s)", model, st1, d1, st2, d2)
		}
		var r1, r2 inferResponse
		if err := json.Unmarshal(d1, &r1); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(d2, &r2); err != nil {
			t.Fatal(err)
		}
		if r2.Model != model || r2.Class != r1.Class || len(r2.Logits) != len(r1.Logits) {
			t.Fatalf("%s: cluster %+v != standalone %+v", model, r2, r1)
		}
		for i := range r1.Logits {
			if r2.Logits[i] != r1.Logits[i] {
				t.Fatalf("%s logit %d: cluster %v != standalone %v", model, i, r2.Logits[i], r1.Logits[i])
			}
		}
	}

	const maxNew = 6
	gen := map[string]any{"model": "sentiment", "task": "generate", "text": "once upon a time", "max_new_tokens": maxNew}
	st1, ct1, ev1 := postSSE(t, standalone.url+"/v2/infer", gen)
	st2, ct2, ev2 := postSSE(t, router.URL+"/v2/infer", gen)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("generate: standalone %d, cluster %d", st1, st2)
	}
	if !strings.HasPrefix(ct2, "text/event-stream") {
		t.Fatalf("cluster content type %q, want text/event-stream (got standalone %q)", ct2, ct1)
	}
	if len(ev2) != len(ev1) || len(ev2) != maxNew+1 {
		t.Fatalf("cluster streamed %d events, standalone %d, want %d", len(ev2), len(ev1), maxNew+1)
	}
	for i := 0; i < maxNew; i++ {
		var te1, te2 tokenEvent
		if err := json.Unmarshal([]byte(ev1[i].data), &te1); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(ev2[i].data), &te2); err != nil {
			t.Fatal(err)
		}
		if te2.Step != i {
			t.Fatalf("cluster token event %d arrived with step %d: relay reordered the stream", i, te2.Step)
		}
		if te2.Token != te1.Token {
			t.Fatalf("step %d: cluster token %d != standalone %d", i, te2.Token, te1.Token)
		}
	}
	var done1, done2 generateResult
	if err := json.Unmarshal([]byte(ev1[maxNew].data), &done1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(ev2[maxNew].data), &done2); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(done2.Tokens) != fmt.Sprint(done1.Tokens) {
		t.Fatalf("cluster decoded %v, standalone %v", done2.Tokens, done1.Tokens)
	}
}

// TestClusterPeerCacheServesSharedModel pins the two-level cache: when
// a model's traffic moves to a node whose cache is cold, that node's
// demand misses are served by the peer that has the payloads retained
// — peer-level hits > 0, donor-side serves > 0, and the cold node's
// flash reads stay at or below what a cold standalone server pays for
// the same workload.
func TestClusterPeerCacheServesSharedModel(t *testing.T) {
	dirs := buildModelDirs(t, "sentiment")
	router, nodes := buildCluster(t, []string{"alpha", "beta"}, dirs, "-slack", "1000", "-draingrace", drainGrace)

	body := map[string]any{"model": "sentiment", "task": "classify", "text": "wonderful gripping story"}
	if st, d := postJSON(t, router.URL+"/v2/infer", body); st != http.StatusOK {
		t.Fatalf("warm request: %d %s", st, d)
	}
	home := homeNodeOf(t, nodes, "sentiment")
	cold := otherNode(nodes, home)

	// Drain the home, as SIGTERM does: the router reroutes to the cold
	// holder, whose misses should hit the draining peer's retained
	// payloads instead of flash. (Draining stops routing, not the
	// /cluster donor endpoint, for the whole -draingrace.)
	nodes[home].cancel()
	waitForStates(t, router.URL, map[string]string{home: "draining", cold: "up"})
	const rerouted = 4
	for i := 0; i < rerouted; i++ {
		if st, d := postJSON(t, router.URL+"/v2/infer", body); st != http.StatusOK {
			t.Fatalf("rerouted request %d: %d %s", i, st, d)
		}
	}

	coldStats := statsOf(t, nodes[cold].url)
	homeStats := statsOf(t, nodes[home].url)
	if coldStats.Completed < rerouted {
		t.Fatalf("cold node completed %d, want >= %d rerouted requests", coldStats.Completed, rerouted)
	}
	if coldStats.PeerHits == 0 {
		t.Fatalf("cold node reported no peer-level cache hits: %+v", coldStats.Models)
	}
	if homeStats.PeerServed == 0 {
		t.Fatal("home node donated no retained payloads")
	}

	// The same workload against a cold standalone server bounds the
	// cluster node's flash IO from above: every peer hit is a flash read
	// the cold node did not pay.
	standalone := startServer(t, append(modelArgs(dirs), "-slack", "1000")...)
	for i := 0; i < rerouted+1; i++ {
		if st, d := postJSON(t, standalone.url+"/v2/infer", body); st != http.StatusOK {
			t.Fatalf("standalone request %d: %d %s", i, st, d)
		}
	}
	var coldFlash, aloneFlash uint64
	for _, ms := range coldStats.Models {
		coldFlash += ms.FlashReads
	}
	for _, ms := range statsOf(t, standalone.url).Models {
		aloneFlash += ms.FlashReads
	}
	if coldFlash > aloneFlash {
		t.Fatalf("cold cluster node read flash %d times, standalone %d: peer level saved nothing", coldFlash, aloneFlash)
	}
}

// TestClusterDrainMidTrafficZeroSheds drains a node while it is
// serving a generate stream: the stream runs to completion, new
// traffic reroutes to the surviving node, draining is visible in the
// node's /healthz and /v1/stats and in the router's member table, and
// no request anywhere is shed.
func TestClusterDrainMidTrafficZeroSheds(t *testing.T) {
	dirs := buildModelDirs(t, "sentiment")
	router, nodes := buildCluster(t, []string{"alpha", "beta"}, dirs, "-slack", "1000", "-draingrace", drainGrace)

	body := map[string]any{"model": "sentiment", "task": "classify", "text": "quick check"}
	if st, d := postJSON(t, router.URL+"/v2/infer", body); st != http.StatusOK {
		t.Fatalf("probe request: %d %s", st, d)
	}
	home := homeNodeOf(t, nodes, "sentiment")
	survivor := otherNode(nodes, home)

	// Open a generate stream through the router (it lands on the home
	// node), then drain that node after the first token arrives.
	const maxNew = 24
	genBody, err := json.Marshal(map[string]any{
		"model": "sentiment", "task": "generate", "text": "once upon a time", "max_new_tokens": maxNew,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(router.URL+"/v2/infer", "application/json", bytes.NewReader(genBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	tokens, sawDone, drained := 0, false, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: token") {
			tokens++
		}
		if strings.HasPrefix(line, "event: done") {
			sawDone = true
		}
		if tokens == 1 && !drained {
			drained = true
			nodes[home].cancel()
			waitForStates(t, router.URL, map[string]string{home: "draining", survivor: "up"})
			// New traffic reroutes to the survivor while the stream runs.
			for i := 0; i < 3; i++ {
				if st, d := postJSON(t, router.URL+"/v2/infer", body); st != http.StatusOK {
					t.Fatalf("rerouted request %d: %d %s", i, st, d)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if tokens != maxNew || !sawDone {
		t.Fatalf("in-flight stream delivered %d tokens (done=%v), want all %d: draining must not cut streams", tokens, sawDone, maxNew)
	}
	if !drained {
		t.Fatal("stream ended before the drain was ever exercised")
	}

	// Draining is visible on the node's own surfaces (the contract the
	// router's health poll relies on)...
	var hz struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	hresp, err := http.Get(nodes[home].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hresp.Body).Decode(&hz)
	hresp.Body.Close()
	if err != nil || !hz.OK || !hz.Draining {
		t.Fatalf("draining node /healthz = %+v (err %v), want ok+draining", hz, err)
	}
	if st := statsOf(t, nodes[home].url); !st.Draining {
		t.Fatal("draining node /v1/stats does not report draining")
	}
	if st := statsOf(t, nodes[survivor].url); st.Draining {
		t.Fatal("survivor reports draining")
	}

	// ...and in the router's member table, while the survivor keeps the
	// model placed.
	var rstats struct {
		Nodes []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"nodes"`
		Placements map[string][]string `json:"placements"`
	}
	rresp, err := http.Get(router.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(rresp.Body).Decode(&rstats)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, n := range rstats.Nodes {
		states[n.Name] = n.State
	}
	if states[home] != "draining" || states[survivor] != "up" {
		t.Fatalf("router sees %v", states)
	}
	if p := rstats.Placements["sentiment"]; len(p) != 1 || p[0] != survivor {
		t.Fatalf("placement %v, want [%s]", p, survivor)
	}

	// Zero sheds anywhere: the whole drain cost nothing in-flight.
	for name, n := range nodes {
		st := statsOf(t, n.url)
		if st.Shed != 0 || st.Failed != 0 {
			t.Fatalf("node %s shed=%d failed=%d during drain, want 0/0", name, st.Shed, st.Failed)
		}
	}
}

// BenchmarkClusterServe compares classify through a 1-router/2-node
// in-process cluster against the same fleet standalone: req/s and p99
// per variant, plus the cluster's peer-cache hit rate and flash
// bytes/request in the failover case where the peer level actually
// carries traffic.
func BenchmarkClusterServe(b *testing.B) {
	body, err := json.Marshal(map[string]any{"model": "sentiment", "task": "classify", "text": "wonderful gripping story"})
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, url string) time.Duration {
		start := time.Now()
		resp, err := http.Post(url+"/v2/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
		return time.Since(start)
	}
	report := func(b *testing.B, lat []time.Duration) {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(len(lat))/b.Elapsed().Seconds(), "req/s")
		if n := len(lat); n > 0 {
			b.ReportMetric(float64(lat[(n*99)/100].Microseconds())/1e3, "p99-ms")
		}
	}
	b.Run("standalone", func(b *testing.B) {
		ts := startServer(b, append(modelArgs(buildModelDirs(b, "sentiment")), "-slack", "1000")...)
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lat = append(lat, post(b, ts.url))
		}
		b.StopTimer()
		report(b, lat)
		st := statsOf(b, ts.url)
		if st.Completed > 0 {
			b.ReportMetric(float64(st.BytesRead)/float64(st.Completed), "flashB/req")
		}
	})

	b.Run("cluster-2node", func(b *testing.B) {
		dirs := buildModelDirs(b, "sentiment")
		router, _ := buildCluster(b, []string{"alpha", "beta"}, dirs, "-slack", "1000", "-draingrace", "0")
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lat = append(lat, post(b, router.URL))
		}
		b.StopTimer()
		report(b, lat)
	})

	// Failover: the model's home drains after one warm request, so the
	// surviving node serves everything through the peer cache level.
	b.Run("cluster-failover-peercache", func(b *testing.B) {
		dirs := buildModelDirs(b, "sentiment")
		router, nodes := buildCluster(b, []string{"alpha", "beta"}, dirs, "-slack", "1000", "-draingrace", drainGrace)
		post(b, router.URL)
		home := homeNodeOf(b, nodes, "sentiment")
		nodes[home].cancel()
		waitForStates(b, router.URL, map[string]string{home: "draining"})
		b.ResetTimer()
		lat := make([]time.Duration, 0, b.N)
		for i := 0; i < b.N; i++ {
			lat = append(lat, post(b, router.URL))
		}
		b.StopTimer()
		report(b, lat)
		st := statsOf(b, nodes[otherNode(nodes, home)].url)
		if st.Completed > 0 {
			b.ReportMetric(float64(st.BytesRead)/float64(st.Completed), "flashB/req")
		}
		var hits, flash uint64
		for _, ms := range st.Models {
			hits += ms.PeerHits
			flash += ms.FlashReads
		}
		if hits+flash > 0 {
			b.ReportMetric(float64(hits)/float64(hits+flash), "peer-hit-rate")
		}
	})
}

// getJSON fetches a URL and decodes its JSON body into out.
func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestClusterStitchedTrace pins the cross-node tracing contract: one
// generate request through the router yields ONE merged timeline on
// the router's /v1/debug/trace — the router's spans plus the serving
// node's, grafted under the route.forward hop via the Traceparent
// header — covering queue wait, materialize, at least one decode-step
// bucket, and a shard-IO span tagged with its origin. A garbage
// traceparent on a direct node request is ignored (fresh root trace),
// never an error.
func TestClusterStitchedTrace(t *testing.T) {
	dirs := buildModelDirs(t, "sentiment")
	rts, nodes := buildCluster(t, []string{"a", "b"}, dirs, "-slack", "1000", "-draingrace", "0")

	resp, err := http.Post(rts.URL+"/v2/infer", "application/json",
		strings.NewReader(`{"model":"sentiment","task":"generate","tokens":[1,9,8],"max_new_tokens":6}`))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), "event: done") {
		t.Fatalf("generate via router: status=%d body=%s", resp.StatusCode, body)
	}

	// The router offers its exemplar after the relay finishes — poll
	// briefly for the ring to catch up with the response.
	var listed []obs.Exemplar
	deadline := time.Now().Add(5 * time.Second)
	for {
		listed = nil
		if getJSON(t, rts.URL+"/v1/debug/trace?format=json", &listed) == http.StatusOK && len(listed) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never retained an exemplar for the generate request")
		}
		time.Sleep(10 * time.Millisecond)
	}
	routerEx := listed[0]
	if routerEx.Model != "sentiment" || routerEx.TraceID == "" {
		t.Fatalf("unexpected router exemplar: %+v", routerEx)
	}

	// Fetch the stitched timeline; the node half may also lag the
	// response by an instant, so poll until the forward hop has a node
	// request span grafted under it.
	var stitched obs.Exemplar
	stitchedOK := func() bool {
		var ex obs.Exemplar
		if getJSON(t, rts.URL+"/v1/debug/trace?format=json&trace="+routerEx.TraceID, &ex) != http.StatusOK {
			return false
		}
		stitched = ex
		fwd := -1
		for i, s := range ex.Spans {
			if s.Name == obs.SpanForward {
				fwd = i
			}
		}
		if fwd < 0 {
			return false
		}
		for i, s := range ex.Spans {
			if i > 0 && s.Name == obs.SpanRequest && int(s.Parent) == fwd {
				return true
			}
		}
		return false
	}
	for !stitchedOK() {
		if time.Now().After(deadline) {
			t.Fatalf("never saw a stitched router+node trace; last spans: %+v", stitched.Spans)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The merged span set covers every layer of the pipeline.
	seen := map[string]bool{}
	origins := map[string]bool{}
	for _, s := range stitched.Spans {
		seen[s.Name] = true
		if s.Name == obs.SpanShardIO {
			origins[s.Detail] = true
		}
	}
	for _, want := range []string{obs.SpanRequest, obs.SpanForward, obs.SpanQueueWait,
		obs.SpanMaterialize, obs.SpanDecodeStep, obs.SpanShardIO} {
		if !seen[want] {
			t.Errorf("stitched trace is missing a %q span (have %v)", want, seen)
		}
	}
	valid := map[string]bool{obs.OriginFlash: true, obs.OriginCache: true, obs.OriginPeer: true}
	if len(origins) == 0 {
		t.Error("no shard-IO span carries an origin tag")
	}
	for o := range origins {
		if !valid[o] {
			t.Errorf("shard-IO span tagged with unknown origin %q", o)
		}
	}
	// The forward hop names the member that actually served.
	for _, s := range stitched.Spans {
		if s.Name == obs.SpanForward {
			if _, ok := nodes[s.Detail]; !ok {
				t.Errorf("route.forward detail %q names no cluster member", s.Detail)
			}
		}
	}

	// Garbage traceparent straight at a node: ignored, fresh root.
	req, err := http.NewRequest(http.MethodPost, nodes["a"].url+"/v2/infer",
		strings.NewReader(`{"model":"sentiment","tokens":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", "zz-garbage-not-a-traceparent-at-all")
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("garbage traceparent => %d, want 200 (ignored, not an error)", dresp.StatusCode)
	}
	freshRoot := func() bool {
		var listed []obs.Exemplar
		getJSON(t, nodes["a"].url+"/v1/debug/trace?format=json", &listed)
		for _, ex := range listed {
			if ex.RemoteParent < 0 && ex.Err == "" {
				return true
			}
		}
		return false
	}
	for !freshRoot() {
		if time.Now().After(deadline) {
			t.Fatal("garbage-traceparent request never produced a fresh-root exemplar")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterObservabilitySmoke drives traffic through a two-node
// cluster, then scrapes every /metrics surface (router and both
// members) through the exposition linter and checks the debug-trace
// endpoints actually retained exemplars. This is the CI observability
// smoke: a malformed metric line or a silently-empty exemplar ring
// fails here, not in a dashboard.
func TestClusterObservabilitySmoke(t *testing.T) {
	dirs := buildModelDirs(t, "sentiment")
	rts, nodes := buildCluster(t, []string{"a", "b"}, dirs, "-slack", "1000", "-draingrace", "0")

	for i := 0; i < 3; i++ {
		st, body := postJSON(t, rts.URL+"/v2/infer",
			map[string]any{"model": "sentiment", "task": "classify", "tokens": []int{1, 2, 3}})
		if st != http.StatusOK {
			t.Fatalf("classify %d: status %d body %s", i, st, body)
		}
	}

	scrapes := []string{rts.URL + "/metrics"}
	for _, cn := range nodes {
		scrapes = append(scrapes, cn.url+"/metrics")
	}
	for _, u := range scrapes {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		raw := new(bytes.Buffer)
		_, err = raw.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", u, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s: content type %q", u, ct)
		}
		if err := obs.LintExposition(raw.Bytes()); err != nil {
			t.Errorf("%s: exposition lint: %v", u, err)
		}
		if !strings.Contains(raw.String(), "sti_") {
			t.Errorf("%s: no sti_ metrics in scrape", u)
		}
	}

	// After traffic the router's trace surface must list exemplars,
	// and the member that served must too. Both are offered after the
	// response completes, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var listed []obs.Exemplar
		if getJSON(t, rts.URL+"/v1/debug/trace?format=json", &listed) == http.StatusOK && len(listed) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router /v1/debug/trace empty after traffic")
		}
		time.Sleep(10 * time.Millisecond)
	}
	nodeHasTrace := func() bool {
		for _, cn := range nodes {
			var listed []obs.Exemplar
			if getJSON(t, cn.url+"/v1/debug/trace?format=json", &listed) == http.StatusOK && len(listed) > 0 {
				return true
			}
		}
		return false
	}
	for !nodeHasTrace() {
		if time.Now().After(deadline) {
			t.Fatal("no member /v1/debug/trace retained an exemplar after traffic")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
