package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"sti"
	"sti/internal/serve"
)

// runTraced is the traced run. Its spans are recorded from the benchmark's
// own files, around calls into each layer's public functions, in three
// phases: http (client spans and the server's own counters around the same
// HTTP load), seams (the same load replayed in-process through the
// scheduler with the fleet wrapped) and walk (each plan the load used,
// taken apart layer by layer down to the leaves).
func runTraced(ctx context.Context, e *env, cfg runConfig) (*result, error) {
	w := cfg.workload
	p := makePools(w, cfg.seed)
	rec := newRecorder()
	res := newResult()
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.Name == name {
				res.Metrics[name] = metricValue{v, d.Unit}
				return
			}
		}
		panic("bench: " + name + " is not a per-layer metric")
	}
	ref := newReference(w, p, e.storeDir)
	half := time.Duration(cfg.seconds) * time.Second / 2

	flags, httpSum, err := traceHTTP(ctx, e, cfg, p, rec, ref, half, set)
	if err != nil {
		return nil, err
	}
	seamLoad, fleet, err := traceSeams(ctx, e, w, p, cfg.seed, rec, half, set)
	if err != nil {
		return nil, err
	}
	if err := traceWalk(ctx, e, w, rec, fleet, workShape(w, p, seamLoad.Samples), set); err != nil {
		return nil, err
	}

	// Both replays of the load answer to the same gate as the untraced run.
	for _, sum := range []*result{httpSum, summarize(w, seamLoad, ref, 1)} {
		res.Attempted += sum.Attempted
		res.Failed += sum.Failed
		res.Errors = append(res.Errors, sum.Errors...)
		res.Correct = res.Correct && sum.Correct
	}

	spans := rec.snapshot()
	tracePath := filepath.Join(cfg.outDir, fmt.Sprintf("trace_%s_seed%d.json", w.Name, cfg.seed))
	if err := writeTrace(tracePath, spans); err != nil {
		return nil, err
	}
	res.Diagnostics["spans"] = metricValue{float64(len(spans)), "count"}
	res.Provenance = cfg.provenance(e, flags, 1)
	return res, nil
}

// --- phase 1: http ---------------------------------------------------------

// scrape is the child's own counters at one instant.
type scrape struct {
	stats   serve.Stats
	metrics map[string]float64 // /metrics series summed over labels
	took    time.Duration      // of the /metrics request
}

func scrapeChild(base string) (*scrape, error) {
	sc := &scrape{metrics: make(map[string]float64)}
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&sc.stats)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("bench: decoding /v1/stats: %w", err)
	}
	start := time.Now()
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	sc.took = time.Since(start)
	if err != nil {
		return nil, err
	}
	lines := bufio.NewScanner(strings.NewReader(string(body)))
	for lines.Scan() {
		line := lines.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || line[0] == '#' {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			sc.metrics[name] += v
		}
	}
	return sc, nil
}

// ratio is a/b, 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceHTTP runs the workload against a child twice — a plain window, then
// an equal one bracketed by scrapes of /v1/stats and /metrics — and turns
// the second window's client timestamps into spans. It returns the child's
// flags and the second window's summary.
func traceHTTP(ctx context.Context, e *env, cfg runConfig, p pools, rec *recorder, ref *reference, window time.Duration, set func(string, float64)) ([]string, *result, error) {
	w := cfg.workload
	sv, err := startServer(ctx, e, cfg, p, 1)
	if err != nil {
		return nil, nil, err
	}
	defer sv.child.stop()
	overHTTP := func(conns int) doer { return newClient(sv.child.base, p, conns) }

	plain := runLoad(ctx, overHTTP, w, cfg.seed, window, func() {})
	var before *scrape
	var scrapeErr error
	host := startHostMeter()
	load := runLoad(ctx, overHTTP, w, cfg.seed, window, func() { before, scrapeErr = scrapeChild(sv.child.base) })
	host.close()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if scrapeErr != nil {
		return nil, nil, scrapeErr
	}
	after, err := scrapeChild(sv.child.base)
	if err != nil {
		return nil, nil, err
	}
	scrapes := []float64{ms(before.took), ms(after.took)}
	for i := 0; i < 3; i++ {
		sc, err := scrapeChild(sv.child.base)
		if err != nil {
			return nil, nil, err
		}
		scrapes = append(scrapes, ms(sc.took))
	}

	// Client spans: client.request ▸ client.ttfb ▸ client.sse_token.
	for _, s := range load.Samples {
		if !s.Window || s.Err != "" {
			continue
		}
		id := fmt.Sprintf("http-c%d-r%d", s.Client, s.Index)
		root := rec.add("client.request", -1, id, s.Sent, s.Done)
		if s.Req.Kind == kindBudget {
			continue
		}
		ttfb := rec.add("client.ttfb", root, id, s.Sent, s.FirstByte)
		for i := 1; i < len(s.TokenAt); i++ {
			rec.add("client.sse_token", ttfb, id, s.TokenAt[i-1], s.TokenAt[i])
		}
	}
	sum := summarize(w, load, ref, 1)
	diag := func(name string) float64 { return sum.Diagnostics[name].Value }
	set("bench.sched_lag_p50_ms", diag("generator_lateness_p50_ms"))
	set("bench.trace_overhead_ratio", ratio(sum.Metrics["req_per_s"].Value, summarize(w, plain, ref, 1).Metrics["req_per_s"].Value))
	set("bench.preprocess_s", sv.preprocess.Seconds())
	// A traced run's timings are as measured; this is the host they were
	// measured on (an untraced run divides it out).
	slowness, _ := host.slowness(load.Start, load.End)
	set("bench.host_slowness", slowness)
	set("sti-serve.http_overhead_p50_ms", diag("http_overhead_p50_ms"))
	set("sti-serve.itl_p50_ms", diag("itl_p50_ms"))
	set("sti-serve.sse_gap_p99_ms", diag("itl_p99_ms"))
	set("sti-serve.latency_p99_ms", diag("latency_p99_ms"))
	set("serve.queue_wait_p50_ms", diag("queue_wait_p50_ms"))

	// The server's own counters over the window.
	a, b := after.stats, before.stats
	completed := float64(a.Completed - b.Completed)
	refused := float64(a.Shed-b.Shed) + float64(a.DeadlineMiss-b.DeadlineMiss)
	set("serve.avg_batch", ratio(completed, float64(a.Batches-b.Batches)))
	set("serve.shed_ratio", ratio(refused, completed+refused+float64(a.Failed-b.Failed)))
	set("serve.downgrade_ratio", ratio(float64(a.Downgraded-b.Downgraded), completed))
	hits, misses := float64(a.PlanCacheHits-b.PlanCacheHits), float64(a.PlanCacheMisses-b.PlanCacheMisses)
	set("fleet.plan_cache_hit_ratio", ratio(hits, hits+misses))
	set("fleet.preload_bytes", after.metrics["sti_preload_cache_bytes"])
	beforeModel := make(map[string]serve.ModelStats)
	for _, m := range b.Models {
		beforeModel[m.Model] = m
	}
	var imbalance, steps, stepSeqs, preempted, recomputed float64
	for _, m := range a.Models {
		bm := beforeModel[m.Model]
		lo, hi := -1.0, 0.0
		for i, served := range m.ReplicaServed {
			d := float64(served)
			if i < len(bm.ReplicaServed) {
				d -= float64(bm.ReplicaServed[i])
			}
			if lo < 0 || d < lo {
				lo = d
			}
			hi = max(hi, d)
		}
		imbalance = max(imbalance, ratio(hi, max(lo, 1)))
		if m.Gen != nil {
			g := *m.Gen
			if bm.Gen != nil {
				g.Steps -= bm.Gen.Steps
				g.StepSequences -= bm.Gen.StepSequences
				g.Preempted -= bm.Gen.Preempted
				g.RecomputedTokens -= bm.Gen.RecomputedTokens
			}
			steps, stepSeqs = steps+float64(g.Steps), stepSeqs+float64(g.StepSequences)
			preempted, recomputed = preempted+float64(g.Preempted), recomputed+float64(g.RecomputedTokens)
		}
	}
	set("replica.served_imbalance", imbalance)
	set("pipeline.gen_streams_per_step", ratio(stepSeqs, steps))
	set("pipeline.gen_preempted", preempted)
	set("pipeline.gen_recomputed_tokens", recomputed)
	delta := func(name string) float64 { return after.metrics[name] - before.metrics[name] }
	set("store.flash_reads_per_req", ratio(delta("sti_shard_cache_flash_reads_total"), completed))
	set("store.cache_hit_ratio", ratio(delta("sti_shard_cache_hits_total"), delta("sti_shard_cache_requests_total")))
	set("obs.gc_cycles_per_req", ratio(delta("go_gc_cycles_total"), completed))
	set("obs.metrics_scrape_ms", median(scrapes))
	return sv.flags, sum, nil
}

// --- phase 2: seams --------------------------------------------------------

// tracedFleet is the fleet as the scheduler sees it, with spans around the
// two calls that cross the serve/fleet seam. Embedding keeps every optional
// backend surface (pressure, replica and step-loop stats) the fleet offers.
type tracedFleet struct {
	*sti.Fleet
	rec *recorder

	mu sync.Mutex
	// roots finds a request's serve.submit span from the address of its
	// first token: the scheduler hands batches over without their
	// contexts, and every submitted request owns a private token slice.
	roots    map[*int]submitRoot
	dispatch []float64 // us: fleet.serve span minus the Stats.Total it returned
}

type submitRoot struct {
	span int
	req  string
}

func (t *tracedFleet) rootOf(req sti.Request) submitRoot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.roots[&req.Tokens[0]]; ok {
		return r
	}
	return submitRoot{span: -1}
}

func (t *tracedFleet) noteDispatch(span, inner time.Duration) {
	t.mu.Lock()
	t.dispatch = append(t.dispatch, us(span-inner))
	t.mu.Unlock()
}

func (t *tracedFleet) Serve(ctx context.Context, name string, req sti.Request) (*sti.Response, error) {
	root := t.rootOf(req)
	start := time.Now()
	resp, err := t.Fleet.Serve(ctx, name, req)
	end := time.Now()
	t.rec.add("fleet.serve", root.span, root.req, start, end)
	if err == nil {
		inner := resp.Stats.Total
		if resp.Gen != nil {
			inner = resp.Gen.Total
		}
		t.noteDispatch(end.Sub(start), inner)
	}
	return resp, err
}

func (t *tracedFleet) ServeBatch(ctx context.Context, name string, reqs []sti.Request) ([]*sti.Response, *sti.BatchStats, error) {
	start := time.Now()
	resps, bs, err := t.Fleet.ServeBatch(ctx, name, reqs)
	end := time.Now()
	// One execution served every member: each member's root gets the span.
	for _, req := range reqs {
		root := t.rootOf(req)
		t.rec.add("fleet.serve_batch", root.span, root.req, start, end)
	}
	if err == nil {
		t.noteDispatch(end.Sub(start), bs.Total)
	}
	return resps, bs, err
}

// seamDoer performs operations in-process: each input is one
// Scheduler.Submit under its own serve.submit root span, as the HTTP
// handler would make it.
type seamDoer struct {
	fleet *tracedFleet
	sched *serve.Scheduler
	pools pools

	mu        sync.Mutex
	setBudget []float64 // ms
}

func (d *seamDoer) close() {}

func (d *seamDoer) do(ctx context.Context, s *sample, due time.Time) {
	s.Due, s.Sent = due, time.Now()
	defer func() {
		s.Done = time.Now()
		if s.FirstByte.IsZero() {
			s.FirstByte = s.Done
		}
	}()
	id := fmt.Sprintf("seam-c%d-r%d", s.Client, s.Index)
	if s.Req.Kind == kindBudget {
		span := d.fleet.rec.begin("fleet.set_budget", -1, id)
		start := time.Now()
		s.Err = errString(d.fleet.SetBudget(s.Req.Budget))
		d.fleet.rec.end(span)
		d.mu.Lock()
		d.setBudget = append(d.setBudget, ms(time.Since(start)))
		d.mu.Unlock()
		return
	}
	target := time.Duration(s.Req.TargetMS * float64(time.Millisecond))
	if s.Req.Kind == kindGenerate {
		req := sti.Request{Task: sti.TaskGenerate, Tokens: append([]int(nil), d.pools.prompts[s.Req.Inputs[0]]...),
			MaxNewTokens: s.Req.MaxNew, TargetLatency: target, Priority: s.Req.Priority,
			OnToken: func(step, token int) {
				s.TokenAt = append(s.TokenAt, time.Now())
				s.StreamTokens = append(s.StreamTokens, token)
			}}
		r, err := d.submit(ctx, id, s.Req.Model, req)
		s.Results, s.Err = []wireResult{r}, errString(err)
		return
	}
	s.Results = make([]wireResult, len(s.Req.Inputs))
	errs := make([]error, len(s.Req.Inputs))
	var wg sync.WaitGroup
	for i, in := range s.Req.Inputs {
		wg.Add(1)
		go func(i, in int) {
			defer wg.Done()
			req := sti.Request{Task: sti.TaskClassify, Tokens: append([]int(nil), d.pools.classify[in]...),
				TargetLatency: target, Priority: s.Req.Priority}
			s.Results[i], errs[i] = d.submit(ctx, fmt.Sprintf("%s-i%d", id, i), s.Req.Model, req)
		}(i, in)
	}
	wg.Wait()
	for _, err := range errs {
		if s.Err == "" {
			s.Err = errString(err)
		}
	}
}

// submit is one Scheduler.Submit under a serve.submit root span, converted
// to the wire shape the checks read (as cmd/sti-serve's resultFor does).
func (d *seamDoer) submit(ctx context.Context, id, model string, req sti.Request) (wireResult, error) {
	t := d.fleet
	root := t.rec.begin("serve.submit", -1, id)
	key := &req.Tokens[0]
	t.mu.Lock()
	t.roots[key] = submitRoot{span: root, req: id}
	t.mu.Unlock()
	res, err := d.sched.Submit(ctx, model, req)
	t.rec.end(root)
	t.mu.Lock()
	delete(t.roots, key)
	t.mu.Unlock()
	if err != nil {
		return wireResult{Class: -1}, err
	}
	out := wireResult{Logits: res.Logits, Tokens: res.GeneratedTokens, Batch: res.Batch,
		QueuedMS: ms(res.Queued), TotalMS: ms(res.Total)}
	for i, v := range res.Logits {
		if v > res.Logits[out.Class] {
			out.Class = i
		}
	}
	if res.Stats != nil {
		out.BytesRead = res.Stats.BytesRead / int64(max(res.Batch, 1))
	}
	if res.Tier != nil {
		out.TierMS, out.Fidelity, out.Downgraded = ms(res.Tier.Target), res.Tier.Fidelity, res.Tier.Downgraded
	}
	return out, nil
}

// traceSeams replays the workload in-process: sti.Load → NewFleet/Add/
// Replan → serve.New, exactly as cmd/sti-serve wires them, with the fleet
// wrapped to record fleet.serve / fleet.serve_batch under a serve.submit
// root per request. It returns the fleet so the walk can read its plans.
func traceSeams(ctx context.Context, e *env, w *workload, p pools, seed int64, rec *recorder, window time.Duration, set func(string, float64)) (*loadResult, *sti.Fleet, error) {
	fleet, err := newFleet(w, variant{w.Budgets[0], w.Replicas}, e.storeDir, w.sharedCache())
	if err != nil {
		return nil, nil, err
	}
	tf := &tracedFleet{Fleet: fleet, rec: rec, roots: make(map[*int]submitRoot)}
	sched := serve.New(tf, serve.Options{
		QueueDepth: 64, Workers: max(2, 2*w.Replicas), Slack: slack,
		MaxBatch: 8, BatchWindow: 2 * time.Millisecond, MaxStreams: 64,
	})
	d := &seamDoer{fleet: tf, sched: sched, pools: p}
	load := runLoad(ctx, func(int) doer { return d }, w, seed, window, func() {})
	sched.Close()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// serve.submit self time: everything the scheduler adds around the
	// backend call — admission, queue wait, the batch window, demux.
	spans := rec.snapshot()
	self := selfTimes(spans)
	var submitSelf []float64
	for _, s := range spans {
		if s.Name == "serve.submit" {
			submitSelf = append(submitSelf, us(self[s.ID]))
		}
	}
	set("serve.submit_self_p50_us", median(submitSelf))
	set("fleet.dispatch_p50_us", median(tf.dispatch))

	var cache sti.ShardCacheStats
	for _, m := range w.Models {
		cs, _ := fleet.SharedCacheStats(m.Name)
		cache.Requests += cs.Requests
		cache.SingleflightHits += cs.SingleflightHits
		cache.Evictions += cs.Evictions
	}
	set("store.singleflight_hit_ratio", ratio(float64(cache.SingleflightHits), float64(cache.Requests)))
	set("store.evictions", float64(cache.Evictions))

	// Replan and SetBudget on the quiesced fleet: what set-up and a budget
	// change cost without traffic to wait out.
	var replan []float64
	for i := 0; i < 3; i++ {
		span := rec.begin("fleet.replan", -1, "")
		start := time.Now()
		if err := fleet.Replan(); err != nil {
			return nil, nil, err
		}
		replan = append(replan, ms(time.Since(start)))
		rec.end(span)
		span = rec.begin("fleet.set_budget", -1, "")
		start = time.Now()
		if err := fleet.SetBudget(fleet.Budget()); err != nil {
			return nil, nil, err
		}
		d.setBudget = append(d.setBudget, ms(time.Since(start)))
		rec.end(span)
	}
	set("fleet.replan_ms", median(replan))
	set("fleet.set_budget_ms", median(d.setBudget))
	return load, fleet, nil
}
