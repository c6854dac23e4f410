package httpserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sti"
	"sti/internal/cluster"
	"sti/internal/obs"
	"sti/internal/obs/obshttp"
	"sti/internal/tokenizer"
)

// Server is one sti-serve process's HTTP surface. In standalone and
// node mode it is the frontend over a fleet and its scheduler (a node
// adds GET /cluster/shard); in router mode it is the cluster
// router alone.
//
// /v2/infer is the one inference surface: a `task` field selects
// classify (the default) or generate; generate responses stream each
// decoded token as a server-sent event the moment the pipeline
// produces it.
type Server struct {
	fleet   *sti.Fleet     // nil in router mode
	sched   *sti.Scheduler // nil in router mode
	hub     *obs.Hub
	node    *cluster.Node   // node mode only
	router  *cluster.Router // router mode only
	models  map[string]modelInfo
	handler http.Handler // the serving mux (with /cluster/ on a node) or the router, plus pprof
}

// modelInfo caches what the handler needs to tokenize and validate
// input for one model.
type modelInfo struct {
	tok    *tokenizer.Tokenizer
	vocab  int
	maxSeq int
}

// ServeHTTP serves the whole surface New built for the process's mode.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// inferInput is one sequence: raw token ids, or text to be tokenized
// with the model's own tokenizer (TextB for sentence-pair tasks).
type inferInput struct {
	Text   string `json:"text,omitempty"`
	TextB  string `json:"textb,omitempty"`
	Tokens []int  `json:"tokens,omitempty"`
	Mask   []bool `json:"mask,omitempty"`
}

// maxInputsPerBody bounds a multi-input request: each input is one
// goroutine and one admission-queue slot, so an unbounded list would
// let a single client burst past the queue's load shedding.
const maxInputsPerBody = 64

// defaultMaxNewTokens bounds a generate request that did not say how
// many tokens it wants.
const defaultMaxNewTokens = 16

// maxTargetMS caps a request's target_ms at one hour: anything larger
// is a client error, and unbounded values would overflow the
// float→Duration conversion into a negative target.
const maxTargetMS = 3_600_000

// inferRequest is the /v2/infer wire shape: a task-typed request
// carrying a single inline input or a list of classify inputs the
// scheduler's batch accumulator may serve with one shared
// IO/decompress stream.
type inferRequest struct {
	Model string `json:"model"`
	// Task is "classify" (the default) or "generate".
	Task string `json:"task,omitempty"`
	// MaxNewTokens bounds greedy decoding (generate only; default 16,
	// capped by the model's max sequence length).
	MaxNewTokens int `json:"max_new_tokens,omitempty"`
	// TargetMS is the request's own latency SLO in milliseconds: the
	// fleet serves it from the tightest cached plan tier that meets
	// it, planning a new tier on demand for off-ladder targets. 0 (or
	// absent) means the model's default target.
	TargetMS float64 `json:"target_ms,omitempty"`
	// Priority < 0 marks the request best-effort: under congestion it
	// is downgraded to a coarser plan tier (and only shed once the
	// model's queue is entirely full).
	Priority int `json:"priority,omitempty"`
	inferInput
	Inputs []inferInput `json:"inputs,omitempty"`
}

// targetLatency converts the wire SLO into the request field.
func (r inferRequest) targetLatency() time.Duration {
	return time.Duration(r.TargetMS * float64(time.Millisecond))
}

// inferResult is the outcome of one classify input. Batch is how many
// requests shared the execution stream; BytesRead is this request's
// amortized share of that stream's flash IO.
type inferResult struct {
	Class     int       `json:"class"`
	Logits    []float32 `json:"logits,omitempty"`
	QueuedMS  float64   `json:"queued_ms"`
	TotalMS   float64   `json:"total_ms"`
	BytesRead int64     `json:"bytes_read"`
	CacheHits int       `json:"cache_hits"`
	Batch     int       `json:"batch,omitempty"`
	// TierMS is the latency target of the plan tier that served the
	// request; Fidelity its fidelity score in (0,1]; Downgraded whether
	// congestion demoted the request to a coarser tier than its SLO.
	TierMS     float64 `json:"tier_ms,omitempty"`
	Fidelity   float64 `json:"fidelity,omitempty"`
	Downgraded bool    `json:"downgraded,omitempty"`
	Error      string  `json:"error,omitempty"`
}

type inferResponse struct {
	Model string `json:"model"`
	inferResult
}

type batchResponse struct {
	Model   string        `json:"model"`
	Results []inferResult `json:"results"`
}

// tokenEvent is one streamed SSE "token" event of a generate request.
type tokenEvent struct {
	Step  int `json:"step"`
	Token int `json:"token"`
}

// generateResult is the final SSE "done" event: the full decoded
// sequence plus the cost of the one-time shard stream it amortized.
type generateResult struct {
	Model        string  `json:"model"`
	Tokens       []int   `json:"tokens"` // prompt + generated
	PromptTokens int     `json:"prompt_tokens"`
	NewTokens    int     `json:"new_tokens"`
	QueuedMS     float64 `json:"queued_ms"`
	TotalMS      float64 `json:"total_ms"`
	BytesRead    int64   `json:"bytes_read"`
	CacheHits    int     `json:"cache_hits"`
	TierMS       float64 `json:"tier_ms,omitempty"`
	Fidelity     float64 `json:"fidelity,omitempty"`
	Downgraded   bool    `json:"downgraded,omitempty"`
}

// encode validates one input against a model and returns its token ids
// and mask.
func (info modelInfo) encode(in inferInput) ([]int, []bool, error) {
	tokens, mask := in.Tokens, in.Mask
	if len(tokens) == 0 {
		if in.Text == "" {
			return nil, nil, errors.New("missing text or tokens")
		}
		tokens, mask = info.tok.Encode(in.Text, in.TextB)
		return tokens, mask, nil
	}
	// Raw token ids come straight from the client; reject anything
	// the embedding table cannot index.
	if len(tokens) > info.maxSeq {
		return nil, nil, fmt.Errorf("%d tokens exceed max sequence length %d", len(tokens), info.maxSeq)
	}
	for i, tk := range tokens {
		if tk < 0 || tk >= info.vocab {
			return nil, nil, fmt.Errorf("token %d out of range [0,%d) at position %d", tk, info.vocab, i)
		}
	}
	if len(mask) != 0 && len(mask) != len(tokens) {
		return nil, nil, fmt.Errorf("mask length %d != token length %d", len(mask), len(tokens))
	}
	return tokens, mask, nil
}

// validPrefix counts the leading true entries of an attention mask.
func validPrefix(mask []bool) int {
	n := 0
	for _, ok := range mask {
		if !ok {
			break
		}
		n++
	}
	return n
}

// resultFor converts one scheduled outcome into the wire shape.
func resultFor(res *sti.ServeResult, err error) inferResult {
	if err != nil {
		return inferResult{Class: -1, Error: err.Error()}
	}
	best := 0
	for i, v := range res.Logits {
		if v > res.Logits[best] {
			best = i
		}
	}
	out := inferResult{
		Class:    best,
		Logits:   res.Logits,
		QueuedMS: float64(res.Queued.Microseconds()) / 1e3,
		TotalMS:  float64(res.Total.Microseconds()) / 1e3,
		Batch:    res.Batch,
	}
	if res.Stats != nil {
		out.BytesRead = res.Stats.BytesRead
		out.CacheHits = res.Stats.CacheHits
		if res.Batch > 1 {
			out.BytesRead /= int64(res.Batch) // amortized share of the stream
		}
	}
	if res.Tier != nil {
		out.TierMS = float64(res.Tier.Target.Microseconds()) / 1e3
		out.Fidelity = res.Tier.Fidelity
		out.Downgraded = res.Tier.Downgraded
	}
	return out
}

// handleInfer is the task-typed inference endpoint: it decodes,
// validates and dispatches one request.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req inferRequest
	if !obshttp.DecodeBody(w, r, &req) {
		return
	}
	if req.Model == "" {
		obshttp.WriteError(w, http.StatusBadRequest, errors.New("missing model"))
		return
	}
	info, ok := s.models[req.Model]
	if !ok {
		obshttp.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown model %q", req.Model))
		return
	}
	if req.TargetMS < 0 || req.TargetMS > maxTargetMS {
		obshttp.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("target_ms %v outside [0, %v]", req.TargetMS, float64(maxTargetMS)))
		return
	}
	if req.Task != "" && req.Task != "classify" && req.Task != "generate" {
		obshttp.WriteError(w, http.StatusBadRequest, fmt.Errorf("unknown task %q (want classify or generate)", req.Task))
		return
	}

	// The request is routable: open its trace. An inbound Traceparent
	// header (the router hop) continues the upstream trace; anything
	// else mints a fresh root. The trace rides the request context into
	// the scheduler, fleet and pipeline, which record their own spans.
	ctx, tr := s.hub.StartRequest(r.Context(), r.Header.Get(obs.TraceparentHeader))
	if tr != nil {
		tr.Model = req.Model
		r = r.WithContext(ctx)
	}
	var errStr string
	if req.Task == "generate" {
		errStr = s.serveGenerate(w, r, req, info)
	} else {
		errStr = s.serveClassify(w, r, req, info)
	}
	s.hub.FinishRequest(tr, req.Model, "", errStr)
}

// serveClassify serves a classify request. A single-input body is a
// one-element input list: every input is validated up front, then
// submitted concurrently so the scheduler's batch accumulator can drain
// them into one batched execution. Only the response shape differs: a
// single input answers with one result (or a plain error), a list with
// per-input results. The returned string is the request's outcome for
// the trace exemplar ring ("" on success).
func (s *Server) serveClassify(w http.ResponseWriter, r *http.Request, req inferRequest, info modelInfo) string {
	single := len(req.Inputs) == 0
	inputs := req.Inputs
	if single {
		inputs = []inferInput{req.inferInput}
	}
	if len(inputs) > maxInputsPerBody {
		err := fmt.Errorf("%d inputs exceed the per-request limit %d", len(inputs), maxInputsPerBody)
		obshttp.WriteError(w, http.StatusBadRequest, err)
		return err.Error()
	}
	encoded := make([]sti.Request, len(inputs))
	for i, in := range inputs {
		tokens, mask, err := info.encode(in)
		if err != nil {
			if !single {
				err = fmt.Errorf("input %d: %w", i, err)
			}
			obshttp.WriteError(w, http.StatusBadRequest, err)
			return err.Error()
		}
		encoded[i] = sti.Request{
			Task: sti.TaskClassify, Tokens: tokens, Mask: mask,
			TargetLatency: req.targetLatency(), Priority: req.Priority,
		}
	}
	results := make([]inferResult, len(encoded))
	errs := make([]error, len(encoded))
	var wg sync.WaitGroup
	for i, sreq := range encoded {
		wg.Add(1)
		go func(i int, sreq sti.Request) {
			defer wg.Done()
			res, err := s.sched.Submit(r.Context(), req.Model, sreq)
			results[i], errs[i] = resultFor(res, err), err
		}(i, sreq)
	}
	wg.Wait()
	if single {
		if err := errs[0]; err != nil {
			obshttp.WriteError(w, statusFor(err), err)
			return err.Error()
		}
		obshttp.WriteJSON(w, http.StatusOK, inferResponse{Model: req.Model, inferResult: results[0]})
		return ""
	}
	// Mixed outcomes are 200 with per-result errors; an all-failed
	// batch surfaces the first failure's status.
	status := http.StatusOK
	allFailed := true
	for _, err := range errs {
		if err == nil {
			allFailed = false
			break
		}
	}
	outcome := ""
	if allFailed {
		status = statusFor(errs[0])
		outcome = errs[0].Error()
	}
	obshttp.WriteJSON(w, status, batchResponse{Model: req.Model, Results: results})
	return outcome
}

// sseWriteTimeout bounds each SSE event write. Token events are
// written from the stream's emitter goroutine; without a per-write
// deadline a stalled-but-alive client would block that write forever
// once TCP buffers fill, pinning the emitter (and the batcher-side
// token buffer behind it) for the connection's lifetime. On a blown
// deadline the stream is marked dead and every later event is a no-op,
// so the emitter drains instantly.
const sseWriteTimeout = 5 * time.Second

// sseStream serializes server-sent events onto one response. Writes
// race between the stream's emitter goroutine (OnToken, during the
// decode) and the handler (final event, after Submit returns); the
// mutex and the closed flag guarantee no event is written after the
// handler returns and the ResponseWriter dies.
type sseStream struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	started bool
	closed  bool
	dead    bool // a write blew its deadline; drop everything after
}

// event writes one named SSE event with a JSON payload, setting the
// stream headers on first use.
func (st *sseStream) event(name string, v any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.eventLocked(name, v)
}

func (st *sseStream) eventLocked(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	if st.closed || st.dead {
		return
	}
	if !st.started {
		st.started = true
		h := st.w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		st.w.WriteHeader(http.StatusOK)
	}
	// Bound the write so a stalled client cannot pin the emitter; a
	// transport that cannot set deadlines (e.g. httptest recorders)
	// just writes unbounded, as before.
	rc := http.NewResponseController(st.w)
	rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
	//sti:lockok st.mu is the SSE writer-serialization lock; holding it across this deadline-bounded write is its whole job
	if _, err := fmt.Fprintf(st.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		st.dead = true
		return
	}
	if fl, ok := st.w.(http.Flusher); ok {
		//sti:lockok same serialized, deadline-bounded SSE write as the Fprintf above
		fl.Flush()
	}
	rc.SetWriteDeadline(time.Time{})
}

// finish ends the stream: a nil err emits the final event; a non-nil
// err is delivered in-band as an SSE "error" event when tokens already
// streamed, or as a plain JSON error with the proper status code when
// nothing was written yet. No event can be written after finish
// returns, so the handler may safely return.
func (st *sseStream) finish(name string, v any, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err == nil {
		st.eventLocked(name, v)
	} else if st.started {
		st.eventLocked("error", struct {
			Error string `json:"error"`
		}{err.Error()})
	} else {
		//sti:lockok nothing streamed yet, so the emitter goroutine has never written; st.mu only excludes a late event racing this one-shot error body
		obshttp.WriteError(st.w, statusFor(err), err)
	}
	st.closed = true
}

// serveGenerate serves one generate request, streaming each decoded
// token as an SSE "token" event followed by a final "done" (or
// "error") event. Errors before the first token — admission control,
// validation — are plain JSON with the proper status code, exactly
// like classify. The returned string is the request's outcome for the
// trace exemplar ring ("" on success).
func (s *Server) serveGenerate(w http.ResponseWriter, r *http.Request, req inferRequest, info modelInfo) string {
	if len(req.Inputs) > 0 {
		err := errors.New("generate takes a single prompt, not inputs")
		obshttp.WriteError(w, http.StatusBadRequest, err)
		return err.Error()
	}
	prompt, mask, err := info.encode(req.inferInput)
	if err != nil {
		obshttp.WriteError(w, http.StatusBadRequest, err)
		return err.Error()
	}
	// The tokenizer pads classify inputs to MaxSeq; a generate prompt is
	// only the valid prefix — padding would fill the decode window (and
	// a causal decode attends to everything before it, padding included).
	if n := validPrefix(mask); n > 0 && n < len(prompt) {
		prompt = prompt[:n]
	}
	maxNew := req.MaxNewTokens
	if maxNew <= 0 {
		maxNew = defaultMaxNewTokens
	}
	if maxNew > info.maxSeq {
		maxNew = info.maxSeq
	}

	st := &sseStream{w: w}
	// firstToken is the SSE delivery span's open edge: stamped once by
	// the emitter goroutine on the first token event, read after the
	// final event to record the whole delivery window.
	var firstToken atomic.Int64
	res, err := s.sched.Submit(r.Context(), req.Model, sti.Request{
		Task: sti.TaskGenerate, Tokens: prompt,
		MaxNewTokens: maxNew, Priority: req.Priority,
		TargetLatency: req.targetLatency(),
		OnToken: func(step, token int) {
			firstToken.CompareAndSwap(0, time.Now().UnixNano())
			st.event("token", tokenEvent{Step: step, Token: token})
		},
	})
	if err != nil {
		st.finish("", nil, err)
		return err.Error()
	}
	out := generateResult{
		Model:    req.Model,
		Tokens:   res.GeneratedTokens,
		QueuedMS: float64(res.Queued.Microseconds()) / 1e3,
		TotalMS:  float64(res.Total.Microseconds()) / 1e3,
	}
	if res.Gen != nil {
		out.PromptTokens = res.Gen.PromptTokens
		out.NewTokens = res.Gen.NewTokens
		out.BytesRead = res.Gen.Stream.BytesRead
		out.CacheHits = res.Gen.Stream.CacheHits
	}
	if res.Tier != nil {
		out.TierMS = float64(res.Tier.Target.Microseconds()) / 1e3
		out.Fidelity = res.Tier.Fidelity
		out.Downgraded = res.Tier.Downgraded
	}
	st.finish("done", out, nil)
	if tr := obs.FromContext(r.Context()); tr != nil {
		if first := firstToken.Load(); first != 0 {
			// Delivery window: first streamed token through the final
			// "done" event leaving the handler.
			tr.Interval(tr.Root(), obs.SpanSSE, "", time.Unix(0, first), time.Now())
		}
	}
	return ""
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	obshttp.WriteJSON(w, http.StatusOK, s.sched.Snapshot())
}

// handleBudget replans the whole fleet under a new preload budget —
// §3.2's "|S| changes at any time", live. In-flight inference drains
// first (the fleet quiesces), then every model is replanned and warmed
// under its new share.
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	var req struct {
		BudgetBytes int64 `json:"budget_bytes"`
	}
	if !obshttp.DecodeBody(w, r, &req) {
		return
	}
	if req.BudgetBytes < 0 {
		obshttp.WriteError(w, http.StatusBadRequest, errors.New("negative budget"))
		return
	}
	if err := s.fleet.SetBudget(req.BudgetBytes); err != nil {
		obshttp.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	type grant struct {
		Model       string `json:"model"`
		BudgetBytes int64  `json:"budget_bytes"`
		PreloadUsed int64  `json:"preload_used"`
	}
	resp := struct {
		BudgetBytes  int64   `json:"budget_bytes"`
		PreloadBytes int64   `json:"preload_bytes"`
		Grants       []grant `json:"grants"`
	}{BudgetBytes: req.BudgetBytes, PreloadBytes: s.fleet.PreloadBytes()}
	for _, name := range s.fleet.Names() {
		e, _ := s.fleet.Entry(name)
		resp.Grants = append(resp.Grants, grant{Model: name, BudgetBytes: e.Budget, PreloadUsed: e.Plan.PreloadUsed})
	}
	obshttp.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness plus the draining flag a cluster
// router polls: a draining node still answers (in-flight work is
// finishing) but should receive no new traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	obshttp.WriteJSON(w, http.StatusOK, struct {
		OK       bool     `json:"ok"`
		Draining bool     `json:"draining,omitempty"`
		Models   []string `json:"models"`
	}{OK: true, Draining: s.sched.Draining(), Models: s.fleet.Names()})
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// went away while we were still working; no stdlib constant exists.
const statusClientClosedRequest = 499

// statusFor maps the scheduler's typed errors onto HTTP statuses: shed
// load is 503 (retryable), blown deadlines 504, unknown models 404.
// A generate the KV budget cannot hold is 507; one cut off by a
// retired or closing replica's step loop is 503 (retryable).
// Context errors are the caller's own timeout or disconnect, not a
// server fault — they must not read as 500s.
func statusFor(err error) int {
	switch {
	case errors.Is(err, sti.ErrQueueFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, sti.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, sti.ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, sti.ErrServerClosed), errors.Is(err, sti.ErrBatcherClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, sti.ErrKVBudget):
		return http.StatusInsufficientStorage
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}
