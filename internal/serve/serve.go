// Package serve is the concurrent request-serving layer over a fleet
// of planned STI pipelines. The paper plans one engagement at a time
// (§3.2–3.3); serve turns that single-engagement machinery into a
// multi-tenant scheduler that admits many simultaneous task-typed
// inference requests against per-model deadlines.
//
// Each managed model gets a bounded admission queue and a small pool
// of worker goroutines. A request's deadline derives from its own
// TargetLatency (SLO) — or the model's default target when it carries
// none — so a request queued longer than a few targets can never be
// served usefully and is shed instead of dragging the whole queue past
// its deadlines (load shedding at admission keeps tail latency bounded
// — the queue rejects rather than grows). Under congestion (queue
// depth at the high-water mark) the scheduler prefers degrading to
// shedding: best-effort and over-deadline requests are demoted to a
// coarser plan tier — the backend serves them faster at lower fidelity
// and records the downgrade in the response's tier.
//
// Requests are task-typed (pipeline.Request): every classify job runs
// through the backend's ServeBatch — queued jobs of one SLO class share
// one IO/decompress stream, and a lone job is a batch of one — while
// generate jobs dispatch onto the backend's continuous-batching step
// loops — each leaves its worker immediately (bounded by
// Options.MaxStreams), decodes batched with the model's other
// in-flight streams, streams tokens through Request.OnToken, and
// executes under a context carrying the job's deadline so the step
// loop's per-token checks stop it the moment the deadline (or the
// client) goes away.
//
// The scheduler never touches plans itself: replanning (budget or
// membership changes) happens on the backend fleet, whose RWMutex
// quiesces in-flight inference. Workers simply observe the new plan on
// their next request.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sti/internal/obs"
	"sti/internal/pipeline"
	"sti/internal/planner"
	"sti/internal/replica"
	"sti/internal/store"
)

// Typed admission-control errors. HTTP frontends map these to status
// codes (503 for shedding, 504 for blown deadlines, 404 for unknown
// models); programmatic callers test with errors.Is.
var (
	// ErrQueueFull reports load shedding: the model's bounded
	// admission queue was full at submit time. (Best-effort requests
	// with Priority < 0 are downgraded to a coarser tier, not shed,
	// while any queue slot remains.)
	ErrQueueFull = errors.New("serve: queue full, request shed")
	// ErrDeadline reports that the request's deadline expired before a
	// worker could start it (or was already expired at submit), or —
	// for generate — that the decode was stopped at the deadline.
	ErrDeadline = errors.New("serve: deadline exceeded before execution")
	// ErrUnknownModel reports a request for a model the backend does
	// not manage.
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrClosed reports a submit to a scheduler after Close.
	ErrClosed = errors.New("serve: scheduler closed")
)

// Backend is the fleet surface the scheduler drives. *sti.Fleet
// implements it; tests substitute stubs. The stats methods report
// ok=false for a model (or a backend) with nothing to report.
type Backend interface {
	// Names lists managed models in a stable order.
	Names() []string
	// Target returns the planned latency target of a managed model.
	Target(name string) (time.Duration, bool)
	// Serve runs one generate request; it must be safe for concurrent
	// use and honor ctx cancellation. The scheduler sends every classify
	// to ServeBatch instead.
	Serve(ctx context.Context, name string, req pipeline.Request) (*pipeline.Response, error)
	// ServeBatch runs one batched classify — of any size, one included —
	// whose single IO/decompress stream serves every request; it must
	// be safe for concurrent use and honor ctx cancellation.
	ServeBatch(ctx context.Context, name string, reqs []pipeline.Request) ([]*pipeline.Response, *pipeline.BatchStats, error)

	// ReplicaStats and SharedCacheStats report a model's replica pool
	// and its shared shard-cache counters; GenerateStats its aggregated
	// continuous-batching step loops. All surface through Snapshot into
	// ModelStats.
	ReplicaStats(model string) (replica.PoolStats, bool)
	SharedCacheStats(model string) (store.CacheStats, bool)
	GenerateStats(model string) (pipeline.StepLoopStats, bool)
}

// Options tunes the scheduler.
type Options struct {
	// QueueDepth bounds each model's admission queue; submits beyond
	// it shed with ErrQueueFull. Default 64.
	QueueDepth int
	// Workers is the number of worker goroutines per model. Default 2.
	// Every worker may execute a batch, but at most
	// min(Workers, GOMAXPROCS) of them gather from the queue at once
	// (the model's gather seats), so workers beyond the CPU count add
	// execution overlap rather than extra, smaller batches.
	Workers int
	// Slack scales a model's latency target into its queue deadline:
	// a request older than Slack×target at dequeue is dropped with
	// ErrDeadline. Default 4.
	Slack float64
	// MaxBatch is how many queued classify jobs a worker may drain
	// into one batched backend call, amortizing the model's
	// IO/decompress stream across them. At most
	// min(Workers, GOMAXPROCS) workers fill batches at once, so a burst
	// of up to MaxBatch jobs per CPU forms at most one batch per CPU.
	// 1 disables batching. Default 1.
	MaxBatch int
	// BatchWindow is how long a worker holding one classify job waits
	// for more to accumulate before executing (only when MaxBatch > 1).
	// Default 2ms.
	BatchWindow time.Duration
	// MaxStreams caps concurrently dispatched generate streams across
	// the scheduler: generate jobs leave the worker immediately and
	// decode on the backend's continuous-batching step loops, so
	// workers stay free for classify batching; at the cap the worker
	// blocks, backpressuring through the admission queue. Default 64.
	MaxStreams int
	// Obs is the process's observability hub. When set, every model's
	// serving counters and latency/queue-wait histograms register into
	// its /metrics registry; per-request spans ride the request context
	// regardless (they need only a trace on the context). Nil keeps the
	// instruments private to Snapshot.
	Obs *obs.Hub
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Slack <= 0 {
		o.Slack = 4
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1
	}
	if o.BatchWindow <= 0 {
		o.BatchWindow = 2 * time.Millisecond
	}
	if o.MaxStreams <= 0 {
		o.MaxStreams = 64
	}
	return o
}

// Result is the outcome of one scheduled request: the backend's
// Response plus how the scheduler served it. For a batched request
// Stats describes the shared stream: BytesRead/CacheHits are the whole
// batch's, so this request's amortized IO is BytesRead/Batch. Tier is
// nil when the backend resolves no tiers.
type Result struct {
	pipeline.Response
	// Batch is how many requests shared the execution stream (1 for a
	// request served alone).
	Batch int

	Queued time.Duration // admission → worker pickup
	Total  time.Duration // admission → completion
}

type job struct {
	ctx      context.Context
	req      pipeline.Request
	deadline time.Time
	window   time.Duration // Slack × the request's effective target
	coarsest time.Duration // the model ladder's bottom rung (0.5×default)
	demoted  bool          // downgraded over-deadline at dequeue
	picked   bool          // queue-wait recorded (a failed batch retries each job alone)
	enqueued time.Time
	done     chan outcome
}

type outcome struct {
	res Result
	err error
}

type modelQueue struct {
	jobs chan *job
	// seats holds one token per worker gathering from jobs; its
	// capacity, min(Workers, GOMAXPROCS), is fixed at queue creation
	// (see worker for why).
	seats   chan struct{}
	stats   *modelStats
	started bool // workers spawned (deferred to the first real enqueue)
}

// Scheduler multiplexes task-typed requests across a Backend with
// per-model bounded queues, deadlines and worker pools. Create with
// New, submit with Submit, observe with Snapshot, stop with Close.
type Scheduler struct {
	backend Backend
	opts    Options
	start   time.Time

	// genSlots is the scheduler-wide generate concurrency gate: one
	// token per in-flight stream, acquired by the worker before the
	// stream leaves it for the backend's step loop.
	genSlots chan struct{}

	// draining flags graceful shutdown in progress: admission and
	// execution continue unchanged (in-flight work must finish), but
	// Snapshot and the HTTP health surface report it so a cluster
	// router stops routing here before the listener closes.
	draining atomic.Bool

	mu     sync.Mutex
	queues map[string]*modelQueue
	closed bool
	wg     sync.WaitGroup
}

// SetDraining marks (or clears) the scheduler's graceful-shutdown
// state. It changes no scheduling behavior — queued and in-flight work
// still completes — it only flips what Draining and Snapshot report.
func (s *Scheduler) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether graceful shutdown has begun.
func (s *Scheduler) Draining() bool { return s.draining.Load() }

// latencyWindow is how many recent request latencies each model keeps
// for the p50/p95 snapshot.
const latencyWindow = 512

// highWater is the congestion mark as a fraction of the queue's
// capacity: at or above it the scheduler downgrades best-effort
// (Priority < 0) and over-deadline requests to a coarser plan tier
// instead of shedding them — fidelity degrades before availability
// does.
const highWater = 0.5

// New starts a scheduler over a backend. Queues and workers for each
// model spin up lazily on its first request, so models added to the
// fleet later are picked up without restarting the scheduler.
func New(backend Backend, opts Options) *Scheduler {
	s := &Scheduler{
		backend: backend,
		opts:    opts.withDefaults(),
		start:   time.Now(),
		queues:  make(map[string]*modelQueue),
	}
	s.genSlots = make(chan struct{}, s.opts.MaxStreams)
	return s
}

// congested reports whether a queue's depth is at or past the
// high-water mark — the point where the scheduler starts trading
// fidelity (tier downgrades) for availability.
func (s *Scheduler) congested(q *modelQueue) bool {
	return float64(len(q.jobs)) >= highWater*float64(cap(q.jobs))
}

// Submit admits one task-typed request for a model and blocks until it
// completes, is shed, or ctx is done. The request's deadline is
// admission time + Slack×(its TargetLatency, or the model's default
// target), tightened by any earlier ctx deadline; generate requests
// keep checking it per decoded token. Requests with Priority < 0 are
// best-effort: past the queue's high-water mark they are downgraded to
// a coarser plan tier — served degraded instead of shed — and only a
// full queue sheds them like everyone else.
func (s *Scheduler) Submit(ctx context.Context, model string, req pipeline.Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	target, ok := s.backend.Target(model)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	// Canonicalize the SLO once at admission: fill in the model
	// default and snap to the plan-cache grid, so the deadline window,
	// the batch grouping below and the backend's tier resolution all
	// agree on one effective target (and the backend is consulted
	// exactly once).
	if req.TargetLatency <= 0 {
		req.TargetLatency = target
	}
	req.TargetLatency = planner.TierKey(req.TargetLatency)
	window := time.Duration(s.opts.Slack * float64(req.TargetLatency))
	now := time.Now()
	deadline := now.Add(window)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}

	// The closed check must precede any queue creation: a submit racing
	// Close would otherwise insert a brand-new queue whose channel Close
	// already missed — leaking it unclosed and recording stats on a
	// closed scheduler.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	q := s.queueLocked(model)
	if !deadline.After(now) {
		s.mu.Unlock()
		q.stats.deadlineMiss()
		return nil, fmt.Errorf("%w: model %q", ErrDeadline, model)
	}
	if req.Priority < 0 && !req.Downgraded && s.congested(q) {
		// Congestion: demote best-effort traffic to a coarser tier
		// instead of shedding it — the tighter-target plan executes
		// faster, so the queue drains harder while the caller still
		// gets an answer (flagged Downgraded in the response's tier).
		req.Downgraded = true
	}

	j := &job{
		ctx: ctx, req: req,
		deadline: deadline, window: window,
		coarsest: planner.Ladder(target)[0],
		enqueued: now,
		done:     make(chan outcome, 1),
	}
	select {
	case q.jobs <- j:
		if !q.started {
			q.started = true
			for i := 0; i < s.opts.Workers; i++ {
				s.wg.Add(1)
				go s.worker(model, q)
			}
		}
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		q.stats.shed()
		return nil, fmt.Errorf("%w: model %q depth %d", ErrQueueFull, model, s.opts.QueueDepth)
	}

	select {
	case out := <-j.done:
		return &out.res, out.err
	case <-ctx.Done():
		// The worker will notice ctx and drop the job; don't wait.
		return nil, ctx.Err()
	}
}

// queueLocked returns the model's queue, creating it on first use.
// s.mu must be held and s.closed checked by the caller. Worker
// goroutines spin up only when a job is actually enqueued, so requests
// rejected at admission (expired deadlines, probes for odd model
// names) don't leave idle worker pools behind.
func (s *Scheduler) queueLocked(model string) *modelQueue {
	if q, ok := s.queues[model]; ok {
		return q
	}
	q := &modelQueue{
		jobs:  make(chan *job, s.opts.QueueDepth),
		seats: make(chan struct{}, min(s.opts.Workers, runtime.GOMAXPROCS(0))),
		stats: newModelStats(model, latencyWindow, s.opts.Obs.Registry()),
	}
	if reg := s.opts.Obs.Registry(); reg != nil {
		jobs := q.jobs
		reg.NewGaugeFunc("sti_queue_depth", "Queued requests awaiting a worker.",
			obs.Labels{"model": model}, func() float64 { return float64(len(jobs)) })
	}
	s.queues[model] = q
	return q
}

// batchKey partitions drained classify jobs by SLO class — the
// canonicalized target plus downgrade state. A shared execution
// stream runs on ONE plan, so batching a tight-SLO job with relaxed
// ones would either blow the tight SLO or silently strip the relaxed
// jobs' fidelity down to the tightest member. The key is a
// conservative proxy for the tier the backend will resolve: distinct
// SLO values that happen to land on the same tier run as separate
// batches (correct, just unamortized) — resolving tiers here would
// couple the scheduler to the fleet's ladder.
type batchKey struct {
	target     time.Duration
	downgraded bool
}

// worker drains one model's queue until the queue closes. A generate
// job is dispatched immediately onto the backend's continuous-batching
// step loop — holding it back for a batch window would only delay its
// first token, and holding the worker for its whole decode would cap
// concurrent streams at the worker count. A classify job accumulates
// up to MaxBatch queued jobs (waiting at most BatchWindow after the
// first), partitions them by plan tier, and serves each tier group —
// a group of one included — with one batched backend call: one
// IO/decompress stream per group;
// any generate jobs the accumulator happened to drain dispatch the
// same way right after the batches.
//
// A worker receives from the queue only while holding a gather seat
// (modelQueue.seats), so at most min(Workers, GOMAXPROCS) workers
// gather at once and a burst arriving at idle workers forms one batch
// per CPU instead of one per worker. A batch already spreads its
// matmuls over GOMAXPROCS, so more concurrent gathers than CPUs would
// only split a burst into more shard streams, while fewer would
// serialize requests the CPUs could run side by side. The seat covers
// the receive and the accumulate window only: it is returned before a
// generate dispatch (which can block on a stream slot) and before a
// batch executes, so no worker holds one while executing or waiting
// for a stream slot.
func (s *Scheduler) worker(model string, q *modelQueue) {
	defer s.wg.Done()
	for {
		q.seats <- struct{}{}
		j, ok := <-q.jobs
		if !ok {
			<-q.seats
			return
		}
		if j.req.Task == pipeline.TaskGenerate {
			<-q.seats
			s.dispatchGenerate(model, q, j)
			continue
		}
		batch := []*job{j}
		if s.opts.MaxBatch > 1 {
			asmStart := time.Now()
			batch = append(batch, s.accumulate(q)...)
			if len(batch) > 1 {
				asmEnd := time.Now()
				for _, b := range batch {
					if tr := obs.FromContext(b.ctx); tr != nil {
						tr.Interval(tr.Root(), obs.SpanAssemble, "", asmStart, asmEnd)
					}
				}
			}
		}
		<-q.seats
		groups := make(map[batchKey][]*job)
		var order []batchKey
		var generate []*job
		for _, b := range batch {
			if b.req.Task == pipeline.TaskGenerate {
				generate = append(generate, b)
				continue
			}
			k := batchKey{target: b.req.TargetLatency, downgraded: b.req.Downgraded}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], b)
		}
		for _, k := range order {
			s.runBatch(model, q, groups[k])
		}
		for _, g := range generate {
			s.dispatchGenerate(model, q, g)
		}
	}
}

// accumulate drains up to MaxBatch-1 more jobs from the queue, waiting
// at most BatchWindow for stragglers. It returns early if the queue
// closes.
func (s *Scheduler) accumulate(q *modelQueue) []*job {
	var more []*job
	timer := time.NewTimer(s.opts.BatchWindow)
	defer timer.Stop()
	for len(more) < s.opts.MaxBatch-1 {
		select {
		case j, ok := <-q.jobs:
			if !ok {
				return more
			}
			more = append(more, j)
		case <-timer.C:
			return more
		}
	}
	return more
}

// dispatchGenerate moves a generate job off the worker onto its own
// goroutine: the job's decode rides the backend's step loop for many
// steps, and the worker must stay free to batch classify traffic
// meanwhile. genSlots bounds the in-flight streams scheduler-wide
// (Options.MaxStreams); at the cap the worker blocks here, so
// backpressure propagates through the bounded admission queue instead
// of spawning unbounded decodes. Dead work sheds before the slot wait:
// the job's context and deadline are checked first, so at the cap a
// queue of already-cancelled or expired generate jobs drains instantly
// instead of serializing through the semaphore one slot-release at a
// time ahead of live classify traffic — and a cancellation while
// blocked releases the worker too.
func (s *Scheduler) dispatchGenerate(model string, q *modelQueue, j *job) {
	if !s.admit(model, q, j, time.Now()) {
		return
	}
	select {
	case s.genSlots <- struct{}{}:
	case <-j.ctx.Done():
		// Caller gone while waiting for a stream slot; nothing is
		// waiting on done (the cancellation-while-queued contract).
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() { <-s.genSlots }()
		// Re-check after the slot wait: the job may have expired in it.
		if s.admit(model, q, j, time.Now()) {
			s.execGenerate(model, q, j)
		}
	}()
}

// admit checks a drained job's context and deadline at execution time:
// an expired job sheds alone, never dragging its batchmates — unless
// the queue is congested and the job was not already demoted, in which
// case it is downgraded to a coarser tier with a fresh (halved)
// deadline window: under pressure the scheduler degrades fidelity
// before it sheds work it already queued. It reports whether the job
// is still worth executing.
func (s *Scheduler) admit(model string, q *modelQueue, j *job, now time.Time) bool {
	if j.ctx.Err() != nil {
		// Caller already gone; nothing is waiting on done. The job must
		// not execute — this is the cancellation-while-queued contract.
		return false
	}
	if now.After(j.deadline) {
		// Demotion must actually buy a faster plan: a request already
		// at (or below) the ladder's bottom rung has no coarser tier
		// to land on, so "downgrading" it would just serve it past its
		// deadline at full fidelity — it sheds like before.
		if !j.req.Downgraded && s.congested(q) && j.req.TargetLatency > j.coarsest {
			j.req.Downgraded = true
			j.demoted = true
			j.deadline = now.Add(j.window / 2)
			return true
		}
		q.stats.deadlineMiss()
		j.done <- outcome{err: fmt.Errorf("%w: model %q queued %v", ErrDeadline, model, now.Sub(j.enqueued).Round(time.Millisecond))}
		return false
	}
	return true
}

// runBatch filters a drained classify batch through admit, serves the
// survivors with one backend call and demuxes results to each done
// channel.
func (s *Scheduler) runBatch(model string, q *modelQueue, batch []*job) {
	now := time.Now()
	live := batch[:0]
	for _, j := range batch {
		if s.admit(model, q, j, now) {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return
	}
	// admit may have demoted over-deadline members to a coarser tier;
	// run them apart so they don't drag their batchmates down with
	// them (a batch executes on one plan — its tightest member's).
	var normal, demoted []*job
	for _, j := range live {
		if j.req.Downgraded {
			demoted = append(demoted, j)
		} else {
			normal = append(normal, j)
		}
	}
	if len(normal) > 0 && len(demoted) > 0 {
		s.executeBatch(model, q, normal, now)
		s.executeBatch(model, q, demoted, now)
		return
	}
	s.executeBatch(model, q, live, now)
}

// notePickup records a job's queue wait — the stats histogram and the
// trace span — exactly once, however many times a failed batch retries
// the job alone.
func (s *Scheduler) notePickup(q *modelQueue, j *job, pickup time.Time) {
	if j.picked {
		return
	}
	j.picked = true
	q.stats.queued(pickup.Sub(j.enqueued))
	if tr := obs.FromContext(j.ctx); tr != nil {
		tr.Interval(tr.Root(), obs.SpanQueueWait, "", j.enqueued, pickup)
	}
}

// executeBatch serves one tier-consistent group of admitted classify
// jobs with one ServeBatch call — a group of one included. A lone job
// runs under its caller's context, so a client that goes away stops
// the shard stream mid-flight. A shared batch runs under the background
// context: its stream serves several clients, so no single client's
// cancellation may abort it (each job's ctx was checked at admission).
// Neither carries the job's deadline into the execution — deadlines
// gate admission, not an execution already paid for.
func (s *Scheduler) executeBatch(model string, q *modelQueue, live []*job, now time.Time) {
	ctx, tag := context.Background(), "batch"
	if len(live) == 1 {
		ctx, tag = live[0].ctx, ""
	}
	execSpans := make([]obs.SpanID, len(live))
	for i, j := range live {
		s.notePickup(q, j, now)
		tr := obs.FromContext(j.ctx)
		execSpans[i] = tr.Begin(tr.Root(), obs.SpanExecute, tag)
	}
	resps, stats, err := s.serveBatch(ctx, model, live)
	for i, j := range live {
		obs.FromContext(j.ctx).EndSpan(execSpans[i])
	}
	if err != nil {
		if len(live) == 1 {
			s.settle(model, q, live[0], Result{}, err)
			return
		}
		// One poisoned request must fail alone, not take down its
		// batchmates: retry each job as a group of one.
		for _, j := range live {
			s.runBatch(model, q, []*job{j})
		}
		return
	}
	q.stats.executed(len(live), stats.BytesRead)
	for i, j := range live {
		s.settle(model, q, j, Result{
			Response: *resps[i], Batch: stats.Batch,
			Queued: now.Sub(j.enqueued), Total: time.Since(j.enqueued),
		}, nil)
	}
}

// execGenerate runs one admitted generate job under the caller's
// context plus the job's deadline, which the decode loop re-checks per
// token, and reports its outcome.
func (s *Scheduler) execGenerate(model string, q *modelQueue, j *job) {
	pickup := time.Now()
	s.notePickup(q, j, pickup)
	ctx, cancel := context.WithDeadline(j.ctx, j.deadline)
	tr := obs.FromContext(j.ctx)
	ex := tr.Begin(tr.Root(), obs.SpanExecute, "")
	resp, err := s.serveOne(ctx, model, j)
	tr.EndSpan(ex)
	cancel()

	res := Result{Batch: 1, Queued: pickup.Sub(j.enqueued), Total: time.Since(j.enqueued)}
	if resp != nil {
		res.Response = *resp
		if resp.Gen != nil {
			q.stats.generated(resp.Gen.NewTokens)
		}
	}
	if err == nil {
		q.stats.executed(1, res.bytesRead())
	}
	s.settle(model, q, j, res, err)
}

// bytesRead is what the stream that served the result read from flash.
func (r *Result) bytesRead() int64 {
	if r.Stats == nil {
		return 0
	}
	return r.Stats.BytesRead
}

// settle accounts for one executed job's outcome and delivers it. A
// successful execution was already counted by the caller; an error
// comes only from a job that ran alone, so settle counts the execution
// itself when the stream did run.
func (s *Scheduler) settle(model string, q *modelQueue, j *job, res Result, err error) {
	switch {
	case err == nil:
		q.stats.completed(res.Total)
		q.stats.servedTier(res.Tier)
		// An over-deadline job was admitted on the promise of a coarser
		// tier; if the backend had no rung to demote to, the job was in
		// fact served past its deadline — account for it.
		if j.demoted && (res.Tier == nil || !res.Tier.Downgraded) {
			q.stats.deadlineMiss()
		}
		j.done <- outcome{res: res}
	case errors.Is(err, context.Canceled) && j.ctx.Err() != nil:
		// Client went away mid-execution; nothing is waiting on done.
		q.stats.executed(1, res.bytesRead())
	case errors.Is(err, context.DeadlineExceeded):
		// The execution stopped at a deadline — a generate re-checks the
		// job's own per token. Partial decode results ride along —
		// streaming callers already observed the tokens via OnToken.
		q.stats.executed(1, res.bytesRead())
		q.stats.deadlineMiss()
		j.done <- outcome{res: res, err: fmt.Errorf("%w: model %q stopped at deadline", ErrDeadline, model)}
	default:
		q.stats.failed()
		j.done <- outcome{err: err}
	}
}

// serveOne shields the worker from a panicking backend: one poisoned
// request must fail alone, not take down every model's workers.
func (s *Scheduler) serveOne(ctx context.Context, model string, j *job) (resp *pipeline.Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("serve: model %q panicked: %v", model, r)
		}
	}()
	return s.backend.Serve(ctx, model, j.req)
}

// serveBatch shields the worker from a panicking backend and validates
// the response shape.
func (s *Scheduler) serveBatch(ctx context.Context, model string, live []*job) (resps []*pipeline.Response, stats *pipeline.BatchStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			resps, stats, err = nil, nil, fmt.Errorf("serve: model %q panicked: %v", model, r)
		}
	}()
	reqs := make([]pipeline.Request, len(live))
	for i, j := range live {
		reqs[i] = j.req
	}
	rs, bs, err := s.backend.ServeBatch(ctx, model, reqs)
	if err != nil {
		return nil, nil, err
	}
	if bs == nil {
		bs = &pipeline.BatchStats{Batch: len(live)}
	}
	if len(rs) != len(live) {
		return nil, nil, fmt.Errorf("serve: model %q returned %d results for %d requests", model, len(rs), len(live))
	}
	return rs, bs, nil
}

// Close stops admission, drains queued requests and waits for workers
// to exit. Requests still queued are served (or shed by their
// deadlines) before Close returns.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, q := range s.queues {
		close(q.jobs)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
