package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sti/internal/obs"
	"sti/internal/obs/obshttp"
)

// RouterOptions tune the cluster frontend.
type RouterOptions struct {
	// DefaultTarget is the SLO assumed for requests that carry no
	// target_ms (default 200ms) — the router cannot know each model's
	// configured default, only the node can.
	DefaultTarget time.Duration
	// HealthInterval paces the background health poll (default 500ms).
	// A node reporting draining (or not answering) stops receiving
	// traffic on the next tick and its models rebalance to the
	// remaining holders.
	HealthInterval time.Duration
	// Obs is the router process's observability hub. When set, the
	// router serves /v1/debug/trace, traces every proxied request, and
	// propagates trace context to the serving node via the Traceparent
	// header so the node's half of the timeline stitches onto the
	// router's. Nil disables all of it.
	Obs *obs.Hub
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.DefaultTarget <= 0 {
		o.DefaultTarget = 200 * time.Millisecond
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 500 * time.Millisecond
	}
	return o
}

const (
	// hopSlack multiplies the target into the per-hop deadline,
	// mirroring the scheduler's own admission window: a hop that cannot
	// answer within hopSlack×target is past its SLO anyway.
	hopSlack = 4
	// hopGrace pads every per-hop deadline for queueing and the wire.
	hopGrace = 250 * time.Millisecond
	// minProbeTimeout bounds one health probe, node stats or trace
	// fetch, unless the health interval is longer: a short poll
	// interval quickens draining detection without shrinking the
	// probe's own budget — a probe slower than its timeout reads as a
	// down node.
	minProbeTimeout = time.Second
)

// Node states as the router sees them.
const (
	nodeUp int32 = iota
	nodeDraining
	nodeDown
)

func stateName(s int32) string {
	switch s {
	case nodeDraining:
		return "draining"
	case nodeDown:
		return "down"
	default:
		return "up"
	}
}

// nodeRef is the router's live view of one member.
type nodeRef struct {
	name string
	base string

	state     atomic.Int32
	inflight  atomic.Int64
	forwarded atomic.Uint64
	retries   atomic.Uint64
	errs      atomic.Uint64
}

// Router terminates the cluster's client surface and forwards each
// request to a node holding its model. Classify requests — idempotent
// — are retried once on a different holder when a node sheds (503) or
// the connection fails; generate streams are never retried (tokens may
// already have left). Every forward carries a per-hop deadline derived
// from the request's own SLO, and SSE generate streams are relayed
// event-by-event under the client's context, so a dropped client
// cancels the upstream decode within one step.
type Router struct {
	opts         RouterOptions
	probeTimeout time.Duration // the longer of minProbeTimeout and opts.HealthInterval
	ring         *Ring
	client       *http.Client
	mux          *http.ServeMux
	hub          *obs.Hub

	nodes map[string]*nodeRef
	order []string // node names, sorted, for stable stats

	modelsMu sync.Mutex
	models   map[string]bool // models observed in traffic, for stats placement

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRouter builds the frontend over a static peer list and starts its
// health poll. Call Close to stop it.
func NewRouter(peers []Peer, opts RouterOptions) (*Router, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: router needs peers")
	}
	names := make([]string, len(peers))
	nodes := make(map[string]*nodeRef, len(peers))
	for i, p := range peers {
		names[i] = p.Name
		nodes[p.Name] = &nodeRef{name: p.Name, base: strings.TrimRight(p.URL, "/")}
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	sort.Strings(names)
	rt := &Router{
		opts:         opts,
		probeTimeout: max(minProbeTimeout, opts.HealthInterval),
		ring:         ring,
		client:       &http.Client{Transport: newTransport()},
		mux:          http.NewServeMux(),
		hub:          opts.Obs,
		nodes:        nodes,
		order:        names,
		models:       make(map[string]bool),
		stop:         make(chan struct{}),
	}
	rt.mux.HandleFunc("POST /v2/infer", rt.handleInfer)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /v1/debug/trace", obshttp.Traces(rt.hub, rt.stitchedTrace))
	rt.registerMetrics()
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the health poll.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// reqMeta is the slice of the request body the router needs to route:
// everything else is forwarded opaquely, so node and router never skew
// on wire-shape details.
type reqMeta struct {
	Model    string  `json:"model"`
	Task     string  `json:"task"`
	TargetMS float64 `json:"target_ms"`
}

// maxHopTargetMS caps the target used for deadline derivation (1h,
// matching the node-side target_ms cap). Out-of-range values are
// clamped, not rejected: the node owns request validation, and the
// forward must reach it with a live context for its 400 to relay.
const maxHopTargetMS = 3.6e6

// hopWindow derives the per-hop deadline from the request SLO.
func (rt *Router) hopWindow(meta reqMeta) time.Duration {
	target := rt.opts.DefaultTarget
	if ms := meta.TargetMS; ms > 0 {
		if ms > maxHopTargetMS {
			ms = maxHopTargetMS
		}
		target = time.Duration(ms * float64(time.Millisecond))
	}
	return hopSlack*target + hopGrace
}

func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) {
	body, ok := obshttp.ReadBody(w, r)
	if !ok {
		return
	}
	var meta reqMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		obshttp.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if meta.Model == "" {
		obshttp.WriteError(w, http.StatusBadRequest, fmt.Errorf("missing model"))
		return
	}
	rt.noteModel(meta.Model)
	// Only a generate (selected by the task field) is non-idempotent.
	idempotent := meta.Task == "" || meta.Task == "classify"

	rctx, tr := rt.hub.StartRequest(r.Context(), r.Header.Get(obs.TraceparentHeader))
	if tr != nil {
		tr.Model = meta.Model
	}

	primary, rest := rt.ring.Pick(meta.Model, rt.loadOf)
	if primary == "" {
		rt.hub.FinishRequest(tr, meta.Model, "", "no node available")
		obshttp.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no node available for model %q", meta.Model))
		return
	}
	ctx, cancel := context.WithTimeout(rctx, rt.hopWindow(meta))
	defer cancel()

	served, retryable := rt.forward(ctx, w, rt.nodes[primary], body)
	if served {
		rt.hub.FinishRequest(tr, meta.Model, primary, "")
		return
	}
	if retryable && idempotent && len(rest) > 0 {
		retryNode := rt.nodes[rest[0]]
		retryNode.retries.Add(1)
		if served, _ := rt.forward(ctx, w, retryNode, body); served {
			rt.hub.FinishRequest(tr, meta.Model, rest[0], "")
			return
		}
	}
	rt.hub.FinishRequest(tr, meta.Model, "", "no node could serve")
	obshttp.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("model %q: no node could serve the request", meta.Model))
}

// loadOf is the ring's load signal: the router's in-flight count per
// node (atomic read — Pick holds the ring lock while calling it).
func (rt *Router) loadOf(node string) int {
	if n := rt.nodes[node]; n != nil {
		return int(n.inflight.Load())
	}
	return 0
}

// forward relays one request to one node. served=false means nothing
// was written to the client; retryable distinguishes "another holder
// may answer" (connection error, shed) from client errors the retry
// would just repeat.
func (rt *Router) forward(ctx context.Context, w http.ResponseWriter, node *nodeRef, body []byte) (served, retryable bool) {
	node.inflight.Add(1)
	defer node.inflight.Add(-1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node.base+"/v2/infer", bytes.NewReader(body))
	if err != nil {
		return false, false
	}
	req.Header.Set("Content-Type", "application/json")
	tr := obs.FromContext(ctx)
	hop := tr.Begin(tr.Root(), obs.SpanForward, node.name)
	defer tr.EndSpan(hop)
	if tr != nil {
		// The hop span is the node trace's remote parent: the node's
		// whole timeline stitches under this proxy interval.
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(tr, hop))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		// Connection-level failure: mark the node down now; the health
		// poll brings it back when it answers again.
		node.errs.Add(1)
		if ctx.Err() == nil {
			rt.setState(node, nodeDown)
		}
		return false, ctx.Err() == nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The node shed (queue full) or is closing: both answerable by
		// a different holder.
		node.errs.Add(1)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain for connection reuse
		return false, true
	}
	node.forwarded.Add(1)
	h := w.Header()
	for _, k := range []string{"Content-Type", "Cache-Control"} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" {
		h.Set("Content-Length", cl)
	}
	w.WriteHeader(resp.StatusCode)
	relayBody(w, resp.Body)
	return true, false
}

// relayBody copies the upstream response to the client, flushing after
// every read so SSE events leave the moment they arrive — the relay
// adds buffering to no token. Client-side write errors just end the
// relay; the deferred upstream Body.Close (and the request context)
// tear down the node side.
func relayBody(w http.ResponseWriter, body io.Reader) {
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func (rt *Router) setState(node *nodeRef, state int32) {
	node.state.Store(state)
	rt.ring.SetAvailable(node.name, state == nodeUp)
}

func (rt *Router) noteModel(model string) {
	rt.modelsMu.Lock()
	rt.models[model] = true
	rt.modelsMu.Unlock()
}

// healthz is the node health wire shape the router polls.
type healthz struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
}

// healthLoop polls every node's /healthz: a node answering ok and not
// draining is routable; anything else — draining, erroring,
// unreachable — is taken out of rotation and its models rebalance to
// the remaining holders until it recovers.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			for _, name := range rt.order {
				rt.probe(rt.nodes[name])
			}
		}
	}
}

func (rt *Router) probe(node *nodeRef) {
	body, err := getBounded(context.Background(), rt.client, rt.probeTimeout, node.base+"/healthz")
	var h healthz
	switch {
	case err != nil || json.Unmarshal(body, &h) != nil:
		rt.setState(node, nodeDown)
	case h.Draining:
		rt.setState(node, nodeDraining)
	case h.OK:
		rt.setState(node, nodeUp)
	default:
		rt.setState(node, nodeDown)
	}
}

// NodeStatus is the router's live view of one member, as reported in
// cluster stats.
type NodeStatus struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	State     string `json:"state"`
	InFlight  int64  `json:"in_flight"`
	Forwarded uint64 `json:"forwarded"`
	Retries   uint64 `json:"retries"`
	Errors    uint64 `json:"errors"`
}

// RouterStats is the router's /v1/stats shape: the member table, the
// current placement of every model seen in traffic, and each live
// node's own stats snapshot inlined verbatim.
type RouterStats struct {
	Mode       string                     `json:"mode"`
	Nodes      []NodeStatus               `json:"nodes"`
	Placements map[string][]string        `json:"placements,omitempty"`
	Rebalances uint64                     `json:"rebalances"`
	NodeStats  map[string]json.RawMessage `json:"node_stats,omitempty"`
}

// Stats snapshots the router's member table and placements. Node
// snapshots are fetched live within ctx; unreachable nodes are simply
// absent from NodeStats.
func (rt *Router) Stats(ctx context.Context) RouterStats {
	st := RouterStats{Mode: "router", Rebalances: rt.ring.Rebalances()}
	for _, name := range rt.order {
		n := rt.nodes[name]
		st.Nodes = append(st.Nodes, NodeStatus{
			Name:      n.name,
			URL:       n.base,
			State:     stateName(n.state.Load()),
			InFlight:  n.inflight.Load(),
			Forwarded: n.forwarded.Load(),
			Retries:   n.retries.Load(),
			Errors:    n.errs.Load(),
		})
		if n.state.Load() == nodeUp {
			if st.NodeStats == nil {
				st.NodeStats = make(map[string]json.RawMessage)
			}
			st.NodeStats[name] = rt.fetchStats(ctx, n)
		}
	}
	rt.modelsMu.Lock()
	models := make([]string, 0, len(rt.models))
	for m := range rt.models {
		models = append(models, m)
	}
	rt.modelsMu.Unlock()
	for _, m := range models {
		if st.Placements == nil {
			st.Placements = make(map[string][]string)
		}
		st.Placements[m] = rt.ring.Place(m)
	}
	return st
}

// fetchStats snapshots one member's /v1/stats for inlining into the
// merged router stats. A node body is embedded verbatim only when it
// is complete, valid JSON — a non-200 answer, a read error, an
// oversized or a truncated/garbage body degrades to a per-member
// {"error": ...} object instead of corrupting the whole merged document.
func (rt *Router) fetchStats(ctx context.Context, node *nodeRef) json.RawMessage {
	raw, err := getBounded(ctx, rt.client, rt.probeTimeout, node.base+"/v1/stats")
	if err != nil {
		return statsError("stats: " + err.Error())
	}
	if !json.Valid(raw) {
		return statsError("stats body is not valid JSON (truncated?)")
	}
	return raw
}

// statsError renders a degraded per-member stats entry. Marshalling a
// plain struct keeps arbitrary error text JSON-safe.
func statsError(msg string) json.RawMessage {
	raw, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil {
		return json.RawMessage(`{"error":"unrenderable stats error"}`)
	}
	return raw
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	obshttp.WriteJSON(w, http.StatusOK, rt.Stats(r.Context()))
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	states := make(map[string]string, len(rt.order))
	anyUp := false
	for _, name := range rt.order {
		s := rt.nodes[name].state.Load()
		states[name] = stateName(s)
		if s == nodeUp {
			anyUp = true
		}
	}
	obshttp.WriteJSON(w, http.StatusOK, struct {
		OK    bool              `json:"ok"`
		Nodes map[string]string `json:"nodes"`
	}{OK: anyUp, Nodes: states})
}

// registerMetrics exposes the router's member table as scrape-time
// collector functions: the atomics are authoritative, /metrics just
// reads them.
func (rt *Router) registerMetrics() {
	reg := rt.hub.Registry()
	if reg == nil {
		return
	}
	reg.NewCounterFunc("sti_router_rebalances_total", "Placement rebalances performed by the ring.", nil,
		func() float64 { return float64(rt.ring.Rebalances()) })
	reg.NewGaugeFunc("sti_router_nodes", "Cluster members the router knows.", nil,
		func() float64 { return float64(len(rt.order)) })
	for _, name := range rt.order {
		n := rt.nodes[name]
		lbl := obs.Labels{"node": name}
		reg.NewCounterFunc("sti_router_forwarded_total", "Requests forwarded to the member.", lbl,
			func() float64 { return float64(n.forwarded.Load()) })
		reg.NewCounterFunc("sti_router_retries_total", "Retries routed to the member.", lbl,
			func() float64 { return float64(n.retries.Load()) })
		reg.NewCounterFunc("sti_router_errors_total", "Forward errors observed at the member.", lbl,
			func() float64 { return float64(n.errs.Load()) })
		reg.NewGaugeFunc("sti_router_inflight", "Requests in flight at the member.", lbl,
			func() float64 { return float64(n.inflight.Load()) })
		reg.NewGaugeFunc("sti_router_node_up", "1 when the member is routable.", lbl,
			func() float64 {
				if n.state.Load() == nodeUp {
					return 1
				}
				return 0
			})
	}
}

// stitchedTrace is the router's /v1/debug/trace?trace= lookup: the
// router's exemplar with the serving node's half of the same trace
// grafted on when a member still retains it — the one merged timeline
// a cluster request yields.
func (rt *Router) stitchedTrace(ctx context.Context, id string) (obs.Exemplar, bool) {
	ex, ok := rt.hub.FindTrace(id)
	if !ok {
		return ex, false
	}
	if down, ok := rt.fetchNodeTrace(ctx, id, ex.Node); ok {
		ex.Spans = obs.StitchSpans(ex.Spans, down.RemoteParent, down.Spans)
		ex.Dropped += down.Dropped
		if down.Node != "" && ex.Node == "" {
			ex.Node = down.Node
		}
	}
	return ex, true
}

// fetchNodeTrace asks cluster members for their half of a trace. The
// member that served the request (recorded on the exemplar) is asked
// first; when unknown, every up node is tried. Best-effort: a node
// that dropped or never retained the exemplar just yields no stitch.
func (rt *Router) fetchNodeTrace(ctx context.Context, id, servedBy string) (obs.Exemplar, bool) {
	order := rt.order
	if n := rt.nodes[servedBy]; n != nil {
		order = append([]string{servedBy}, order...)
	}
	seen := make(map[string]bool, len(order))
	for _, name := range order {
		if seen[name] {
			continue
		}
		seen[name] = true
		n := rt.nodes[name]
		if n == nil || n.state.Load() != nodeUp {
			continue
		}
		if ex, ok := rt.fetchOneTrace(ctx, n, id); ok {
			if ex.Node == "" {
				ex.Node = name
			}
			return ex, true
		}
	}
	return obs.Exemplar{}, false
}

func (rt *Router) fetchOneTrace(ctx context.Context, node *nodeRef, id string) (obs.Exemplar, bool) {
	body, err := getBounded(ctx, rt.client, rt.probeTimeout, node.base+"/v1/debug/trace?format=json&trace="+url.QueryEscape(id))
	var ex obs.Exemplar
	if err != nil || json.Unmarshal(body, &ex) != nil {
		return obs.Exemplar{}, false
	}
	return ex, len(ex.Spans) > 0
}
