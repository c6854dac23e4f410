package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"sti/internal/model"
	"sti/internal/obs"
	"sti/internal/planner"
)

// Continuous batching for generation (ROADMAP item 1): instead of each
// generate request running its own decode loop, a per-model Batcher
// owns one step loop that admits new requests between decode steps,
// runs a single batched forward per step across every in-flight
// sequence (model.StepLogits over ragged per-sequence positions), and
// retires finished sequences without stalling the rest — the
// iteration-level scheduling of Orca/vLLM, applied to STI's elastic
// submodels. Each plan's shard stream is materialized once — off the
// loop goroutine, so admitting a cold plan never stalls in-flight
// decodes — and shared by every stream riding it, so flash bytes per
// step do not scale with stream count; KV state lives in paged blocks
// charged against the engine's §3.2 grant, with best-effort streams
// preempted (KV evicted, resumable via recompute) before any tiered
// stream is starved.
//
// The loop goroutine never runs caller code and never blocks on a
// caller: OnToken callbacks fire from a per-stream emitter goroutine
// fed by a bounded token buffer, so one slow token consumer stalls
// only its own stream (which skips steps while its buffer is full),
// never the step loop or the other sequences.

// ErrBatcherClosed is returned for streams rejected or cut off because
// the batcher shut down.
var ErrBatcherClosed = errors.New("pipeline: batcher closed")

// ErrKVBudget fails a stream the KV budget cannot serve: either it
// cannot reserve its first page with nothing held anywhere, or the
// loop has been starved with zero progress for kvStarveFailPolls and
// this was the newest starved stream — shedding it lets the rest make
// progress instead of every stream hanging to its deadline.
var ErrKVBudget = errors.New("pipeline: kv budget exhausted")

// DefaultMaxStreams bounds a batcher's concurrently decoding sequences
// when BatcherOptions leaves MaxStreams zero.
const DefaultMaxStreams = 64

// DefaultTokenBuffer is the per-stream token buffer depth when
// BatcherOptions leaves TokenBuffer zero: how many decoded-but-not-yet
// -delivered tokens a stream may accumulate before the loop stops
// advancing it.
const DefaultTokenBuffer = 1024

// Starvation escape thresholds, in consecutive zero-progress polls of
// the 1ms starvation loop. After kvStarvePreemptPolls a KV-starved
// stream may preempt a holder of its own priority class (normally
// tiered never preempts tiered and best-effort preempts nobody);
// after kvStarveFailPolls with still no progress the newest starved
// stream is failed with ErrKVBudget so the rest can move.
const (
	kvStarvePreemptPolls = 10
	kvStarveFailPolls    = 100
)

// BatcherOptions configures a Batcher.
type BatcherOptions struct {
	// MaxStreams caps concurrently decoding sequences; admissions
	// beyond it queue until a stream retires. <= 0 means
	// DefaultMaxStreams.
	MaxStreams int
	// BlockTokens is the KV page size in positions; <= 0 means
	// model.DefaultBlockTokens.
	BlockTokens int
	// TokenBuffer bounds each stream's decoded-but-undelivered tokens:
	// the step loop stops advancing a stream whose OnToken consumer
	// has fallen this many tokens behind, and resumes when the
	// consumer catches up. <= 0 means DefaultTokenBuffer.
	TokenBuffer int
}

// StreamResult is the single terminal outcome of one submitted stream,
// delivered on the channel Submit returns: a cancelled stream carries
// its partial Response alongside ctx.Err().
type StreamResult struct {
	Resp *Response
	Err  error
}

// StepLoopStats is a point-in-time snapshot of a batcher's step loop.
type StepLoopStats struct {
	// Steps counts batched forwards executed; StepSequences sums their
	// batch sizes, so AvgStreamsPerStep = StepSequences/Steps is the
	// decode amortization factor.
	Steps             uint64  `json:"gen_steps"`
	StepSequences     uint64  `json:"gen_step_sequences"`
	AvgStreamsPerStep float64 `json:"gen_avg_streams_per_step"`

	Streams     int `json:"gen_streams"`      // decoding right now
	PeakStreams int `json:"gen_peak_streams"` // high-water mark
	Pending     int `json:"gen_pending"`      // admitted queue depth
	MaxStreams  int `json:"gen_max_streams"`

	Admitted  uint64 `json:"gen_admitted"`
	Finished  uint64 `json:"gen_finished"`
	Cancelled uint64 `json:"gen_cancelled"`
	// Preempted counts streams whose KV was evicted under budget
	// pressure (best-effort victims, plus same-class victims under
	// sustained starvation); RecomputedTokens the tokens replayed to
	// restore evicted KV on readmission.
	Preempted        uint64 `json:"gen_preempted"`
	RecomputedTokens uint64 `json:"gen_recomputed_tokens"`
	TokensOut        uint64 `json:"gen_tokens_out"`
	// KVBytes is the paged KV cache held live by this batcher, charged
	// against the engine's preload grant.
	KVBytes int64 `json:"gen_kv_bytes"`
}

// emitEvent is one unit of a stream's delivery queue: a decoded token
// for OnToken, or the stream's terminal result (final non-nil), which
// is always the last event.
type emitEvent struct {
	step, token int
	final       *StreamResult
}

// stream is one in-flight generate request's decode state. seq is the
// full decoded sequence (prompt + generated); consumed counts tokens
// fed through the decoder, so consumed == len(seq) is the emission
// point — the head of model.Submodel.GenerateCached's greedy loop. A
// preempted stream keeps seq and NewTokens but resets consumed to 0
// over a fresh decoder: greedy decode is deterministic, so the replay
// regenerates identical KV bytes, and emission never repeats because
// it only happens at consumed == len(seq).
//
// emit, when non-nil (OnToken set), is the stream's bounded delivery
// queue, drained by its own emitter goroutine; the loop is its only
// sender and never sends a token unless at least two slots are free,
// so the terminal event always fits without blocking.
type stream struct {
	ctx  context.Context
	req  Request
	plan *planner.Plan
	res  chan StreamResult

	gen  *GenStats
	resp *Response

	emit chan emitEvent

	emitMu  sync.Mutex
	emitErr error

	dec         *model.Decoder
	seq         []int
	consumed    int
	logits      []float32
	decodeStart time.Time
	admitSeq    uint64

	// Tracing state. tr is the request's trace (nil when tracing is
	// off); spans are recorded only on the loop goroutine outside
	// b.mu — admission (which runs under the lock) just stashes
	// timestamps here and recordAdmitted flushes them at the next step.
	tr       *obs.Trace
	steps    obs.StepBuckets // decode-step aggregation; zero value no-ops
	parked   time.Time       // parked on a materializing plan
	kvWait   time.Time       // first failed KV reserve of the current stint
	matSpans []obs.Span      // materialize-stream spans owed to this rider
	pend     bool            // admission span work waiting for recordAdmitted
}

// recordAdmitted flushes span work stashed at admission: the
// materialize-wait interval, the adopted materialize-stream spans (for
// the one rider that took the group's ExecStats), and the decode-step
// recorder. It runs on the loop goroutine with no lock held.
func (s *stream) recordAdmitted() {
	if !s.pend {
		return
	}
	s.pend = false
	if s.tr == nil {
		s.matSpans = nil
		return
	}
	root := s.tr.Root()
	if !s.parked.IsZero() {
		s.tr.Interval(root, obs.SpanMatWait, "", s.parked, s.decodeStart)
		s.parked = time.Time{}
	}
	if s.matSpans != nil {
		s.tr.AdoptIntervals(root, s.matSpans)
		s.matSpans = nil
	}
	s.steps = obs.NewStepBuckets(s.tr, root)
}

func (s *stream) finishTotal() {
	s.gen.Total = s.gen.Stream.Total
	if !s.decodeStart.IsZero() {
		s.gen.Total += time.Since(s.decodeStart)
	}
}

// emitFailure returns the error a panicking OnToken left behind, if
// any. The loop checks it each step and retires the stream with it.
func (s *stream) emitFailure() error {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	return s.emitErr
}

// emitter drains one stream's delivery queue: OnToken per token event,
// then the terminal result — so every token a caller will ever see via
// OnToken has been delivered before the terminal StreamResult lands.
// Caller code runs only here, never on the loop goroutine: a slow or
// panicking callback stalls (or fails) this stream alone. Once the
// stream's ctx is done or a callback panicked, remaining token events
// are dropped — the consumer is gone — and only the terminal result is
// delivered.
func (s *stream) emitter() {
	failed := false
	for ev := range s.emit {
		if ev.final != nil {
			s.res <- *ev.final
			return
		}
		if failed || s.ctx.Err() != nil {
			continue
		}
		if err := callOnToken(s.req.OnToken, ev.step, ev.token); err != nil {
			failed = true
			s.emitMu.Lock()
			s.emitErr = err
			s.emitMu.Unlock()
		}
	}
}

// planGroup is the per-plan share of a batcher: the submodel its shard
// stream materialized once, ridden by every stream decoding that plan.
// Materialization runs off the loop goroutine; streams arriving before
// it completes park in waiters and are admitted when it finishes.
type planGroup struct {
	plan          *planner.Plan
	sm            *model.Submodel
	es            *ExecStats // one-time stream cost; first admitted rider takes it
	matSpans      []obs.Span // the stream's trace spans; same rider adopts them
	matErr        error
	materializing bool
	waiters       []*stream
	streams       []*stream
}

// Batcher is a per-model continuous-batching step loop over one
// engine. Submit enqueues a generate request; the loop admits it
// between decode steps and delivers its terminal StreamResult when it
// finishes, is cancelled, or fails.
type Batcher struct {
	eng   *Engine
	alloc *model.BlockAllocator

	// matCtx bounds plan materializations; Close cancels it so
	// in-flight shard streams stop promptly.
	matCtx    context.Context
	matCancel context.CancelFunc

	mu         sync.Mutex
	cond       *sync.Cond
	pending    []*stream
	maxStreams int
	tokenBuf   int
	closed     bool

	// Owned by the loop goroutine; never touched elsewhere.
	groups       map[*planner.Plan]*planGroup
	active       int
	starvedPolls int
	seenSteps    uint64 // the budget's step count at the last poll
	// inStep is stepOnce's per-group reservation scratch, reused across
	// steps so the hot loop does not allocate a map per plan group.
	inStep map[*stream]bool

	// Counters, under mu.
	nSteps      uint64
	nStepSeqs   uint64
	nAdmitted   uint64
	nFinished   uint64
	nCancelled  uint64
	nPreempted  uint64
	nRecomputed uint64
	nTokens     uint64
	peak        int

	loopDone chan struct{}
}

// NewBatcher starts a step loop over the engine. The engine itself is
// the KV charger: paged blocks and preload shards arbitrate for one
// §3.2 grant.
func NewBatcher(eng *Engine, opt BatcherOptions) *Batcher {
	if opt.MaxStreams <= 0 {
		opt.MaxStreams = DefaultMaxStreams
	}
	if opt.TokenBuffer <= 0 {
		opt.TokenBuffer = DefaultTokenBuffer
	}
	b := &Batcher{
		eng:        eng,
		alloc:      model.NewBlockAllocator(eng, opt.BlockTokens),
		maxStreams: opt.MaxStreams,
		tokenBuf:   opt.TokenBuffer,
		groups:     make(map[*planner.Plan]*planGroup),
		inStep:     make(map[*stream]bool),
		loopDone:   make(chan struct{}),
	}
	b.matCtx, b.matCancel = context.WithCancel(context.Background())
	b.cond = sync.NewCond(&b.mu)
	go b.loop()
	return b
}

// Submit enqueues a generate request for the plan and returns the
// channel its single terminal StreamResult will arrive on. The request
// joins the step loop at the next inter-step admission point; OnToken
// fires from the stream's own emitter goroutine as tokens decode, and
// every token event is delivered before the terminal result.
// Cancelling ctx retires the stream within one step, freeing its KV
// blocks, and delivers the partial Response with ctx.Err().
func (b *Batcher) Submit(ctx context.Context, p *planner.Plan, req Request) (<-chan StreamResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.Task != TaskGenerate {
		return nil, fmt.Errorf("pipeline: batcher submit with task %v", req.Task)
	}
	if p == nil {
		return nil, fmt.Errorf("pipeline: batcher submit with nil plan")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	gen := &GenStats{PromptTokens: len(req.Tokens)}
	seq := append([]int(nil), req.Tokens...)
	s := &stream{
		ctx: ctx, req: req, plan: p,
		res:  make(chan StreamResult, 1),
		gen:  gen,
		resp: &Response{Gen: gen, Stats: &gen.Stream, GeneratedTokens: seq},
		seq:  seq,
		tr:   obs.FromContext(ctx),
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrBatcherClosed
	}
	if req.OnToken != nil {
		// Buffer TokenBuffer tokens plus one slot the loop keeps free
		// for the terminal event, so delivery never blocks the loop.
		s.emit = make(chan emitEvent, b.tokenBuf+1)
		go s.emitter()
	}
	b.pending = append(b.pending, s)
	b.cond.Broadcast()
	b.mu.Unlock()
	return s.res, nil
}

// deliver hands a stream its terminal result. Streams with an emitter
// route it through the delivery queue — behind any still-undelivered
// token events, so OnToken ordering is preserved — using the slot the
// loop always keeps free; bare streams get it directly on the result
// channel (capacity 1). Never blocks.
func (b *Batcher) deliver(s *stream, r StreamResult) {
	if s.emit != nil {
		s.emit <- emitEvent{final: &r}
		return
	}
	s.res <- r
}

// Close shuts the loop down: pending and in-flight streams are failed
// with ErrBatcherClosed (in-flight ones deliver their partial
// Response), KV blocks are freed, in-flight materializations are
// cancelled, and the loop goroutine exits before Close returns.
// A replica pool closes its batchers only when it is retired.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.loopDone
		return
	}
	b.closed = true
	b.matCancel()
	b.cond.Broadcast()
	b.mu.Unlock()
	<-b.loopDone
}

// Stats snapshots the step loop.
func (b *Batcher) Stats() StepLoopStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := StepLoopStats{
		Steps:            b.nSteps,
		StepSequences:    b.nStepSeqs,
		Streams:          b.active,
		PeakStreams:      b.peak,
		Pending:          len(b.pending),
		MaxStreams:       b.maxStreams,
		Admitted:         b.nAdmitted,
		Finished:         b.nFinished,
		Cancelled:        b.nCancelled,
		Preempted:        b.nPreempted,
		RecomputedTokens: b.nRecomputed,
		TokensOut:        b.nTokens,
		KVBytes:          b.alloc.LiveBytes(),
	}
	if st.Steps > 0 {
		st.AvgStreamsPerStep = float64(st.StepSequences) / float64(st.Steps)
	}
	return st
}

// KVBytes returns the live paged KV bytes held by this batcher.
func (b *Batcher) KVBytes() int64 { return b.alloc.LiveBytes() }

func (b *Batcher) loop() {
	defer close(b.loopDone)
	for {
		b.mu.Lock()
		for !b.closed && len(b.pending) == 0 && b.active == 0 {
			// Streams parked on a materializing plan don't hold the
			// loop awake: the materializer flushes them back to pending
			// and broadcasts when the submodel is ready.
			b.cond.Wait()
		}
		if b.closed {
			pending := b.pending
			b.pending = nil
			b.mu.Unlock()
			for _, s := range pending {
				b.deliver(s, StreamResult{Err: ErrBatcherClosed})
			}
			for _, g := range b.groups {
				// Waiters of a still-materializing group are failed by
				// the materializer when it observes closed.
				for _, s := range g.streams {
					s.dec.Release()
					s.finishTotal()
					b.deliver(s, StreamResult{Resp: s.resp, Err: ErrBatcherClosed})
				}
				g.streams = nil
			}
			return
		}
		culled := b.admitLocked()
		b.mu.Unlock()
		// Terminal results for streams culled during admission go out
		// after the lock drops: deliver is non-blocking by invariant
		// today, but nothing about admission needs it to happen under
		// b.mu, and sending there couples the lock to the delivery
		// queues' capacity story.
		for _, d := range culled {
			b.deliver(d.s, d.r)
		}

		// Yield once per step so waiting submitters get scheduled: on
		// a single-P runtime the compute-bound loop would otherwise
		// monopolize the CPU and decode whole streams serially —
		// admitting "between decode steps" has to include handing the
		// scheduler a chance to run the goroutines doing the admitting.
		runtime.Gosched()

		progress, starved := b.stepOnce(b.starvedPolls >= kvStarvePreemptPolls)
		steps := b.eng.steps.Load()
		if progress {
			steps = b.eng.steps.Add(1)
		}
		switch {
		case progress:
			b.starvedPolls = 0
		case len(starved) > 0 && steps != b.seenSteps:
			// A replica's loop on the same KV budget moved since the
			// last poll: its streams free their pages as they finish,
			// so this loop is waiting, not starved.
			b.starvedPolls = 0
		case len(starved) > 0:
			// Every reservation failed and nothing was preemptable:
			// count the zero-progress poll, and once the loop has been
			// starved past the hard threshold shed the newest starved
			// stream so the budget can serve the rest (a lone stream
			// whose next page exceeds the whole grant sheds itself).
			b.starvedPolls++
			if b.starvedPolls >= kvStarveFailPolls {
				newest := 0
				for i, gs := range starved {
					if gs.s.admitSeq > starved[newest].s.admitSeq {
						newest = i
					}
				}
				b.retire(starved[newest].g, starved[newest].s, nil, ErrKVBudget, false)
				b.starvedPolls = 0
			}
		default:
			b.starvedPolls = 0
		}
		b.seenSteps = steps
		if !progress && b.liveStreams() > 0 {
			// Nothing could step this round: streams are KV-starved
			// (budget held elsewhere) or waiting on slow token
			// consumers. Poll until bytes or buffer space free up, or
			// contexts cancel.
			time.Sleep(time.Millisecond)
		}
	}
}

func (b *Batcher) liveStreams() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.active
}

// delivery is a terminal result admitLocked owes a culled stream; the
// loop performs it after releasing b.mu.
type delivery struct {
	s *stream
	r StreamResult
}

// admitLocked moves pending streams into the step loop up to
// maxStreams. A stream for a plan with no materialized submodel parks
// as a waiter while a separate goroutine runs the one-time shard
// stream — the loop keeps decoding in-flight sequences through the IO
// pass — and is flushed back to pending when it completes. Cancelled
// pending streams and waiters are culled regardless of capacity; their
// terminal deliveries are returned for the caller to send once b.mu is
// released, so no channel send happens under the lock.
func (b *Batcher) admitLocked() []delivery {
	var culled []delivery
	// Cull cancelled waiters so a departed client is answered while
	// its plan's materialization is still in flight.
	for _, g := range b.groups {
		if len(g.waiters) == 0 {
			continue
		}
		kept := g.waiters[:0]
		for _, s := range g.waiters {
			if err := s.ctx.Err(); err != nil {
				s.finishTotal()
				b.nCancelled++
				culled = append(culled, delivery{s, StreamResult{Resp: s.resp, Err: err}})
				continue
			}
			kept = append(kept, s)
		}
		g.waiters = kept
	}
	work := b.pending
	b.pending = nil
	var kept []*stream
	for i, s := range work {
		if err := s.ctx.Err(); err != nil {
			s.finishTotal()
			b.nCancelled++
			culled = append(culled, delivery{s, StreamResult{Resp: s.resp, Err: err}})
			continue
		}
		if b.active >= b.maxStreams {
			kept = append(kept, work[i:]...)
			break
		}
		plan := s.plan
		g := b.groups[plan]
		if g == nil {
			// A new plan displaces idle groups (replans leave stale
			// plan pointers behind; their materialized submodels are
			// only worth keeping while streams ride them or the plan
			// may recur — keep the newest idle one as a warm cache).
			// Groups still materializing, or with parked waiters, are
			// not idle.
			for p, old := range b.groups {
				if p != plan && len(old.streams) == 0 && len(old.waiters) == 0 && !old.materializing {
					delete(b.groups, p)
				}
			}
			g = &planGroup{plan: plan}
			b.groups[plan] = g
		}
		if g.sm == nil {
			// Park until the submodel is ready. A previous attempt's
			// error was delivered to its waiters; this stream retries.
			if !g.materializing {
				g.matErr = nil
				g.materializing = true
				go b.materialize(g, s.tr != nil)
			}
			if s.parked.IsZero() {
				s.parked = time.Now()
			}
			g.waiters = append(g.waiters, s)
			continue
		}
		s.dec = model.NewPagedDecoder(g.sm, b.alloc)
		s.decodeStart = time.Now()
		if g.es != nil {
			// The one-time shard stream's cost lands on exactly one
			// rider — the cohort pays a single materialization.
			s.gen.Stream = *g.es
			s.resp.Stats = &s.gen.Stream
			g.es = nil
			s.matSpans = g.matSpans
			g.matSpans = nil
		}
		// Span recording happens on the loop goroutine outside b.mu
		// (recordAdmitted); admission only flags the stashed state.
		s.pend = true
		g.streams = append(g.streams, s)
		b.active++
		b.nAdmitted++
		s.admitSeq = b.nAdmitted
		if b.active > b.peak {
			b.peak = b.active
		}
	}
	// Leftovers keep their place ahead of anything Submit enqueued
	// while admission ran.
	b.pending = append(kept, b.pending...)
	return culled
}

// materialize runs one plan's shard stream off the loop goroutine and
// flushes the group's waiters back to the pending queue when the
// submodel is ready — the loop keeps decoding every in-flight sequence
// (and retiring cancelled ones) through the whole IO/decompress pass.
// On failure the waiters are failed with the error; on a batcher
// already closed, with ErrBatcherClosed.
func (b *Batcher) materialize(g *planGroup, traced bool) {
	// The materializer has no single request context (its cost is
	// shared by every waiter), so when the triggering stream was traced
	// it records into a detached trace whose spans — the materialize
	// interval plus the shard stream's per-layer IO spans — are adopted
	// by the rider that takes the group's ExecStats.
	ctx := b.matCtx
	var mtr *obs.Trace
	if traced {
		mtr = obs.NewTrace([16]byte{}, -1)
		ctx = obs.WithTrace(ctx, mtr)
	}
	matStart := time.Now()
	sm, es, err := b.eng.Materialize(ctx, g.plan)
	var matSpans []obs.Span
	if mtr != nil {
		mtr.Interval(mtr.Root(), obs.SpanMaterialize, "", matStart, time.Now())
		matSpans = mtr.Spans()
		mtr.Release()
	}
	b.mu.Lock()
	g.materializing = false
	waiters := g.waiters
	g.waiters = nil
	if b.closed {
		b.mu.Unlock()
		for _, s := range waiters {
			b.deliver(s, StreamResult{Err: ErrBatcherClosed})
		}
		return
	}
	if err != nil {
		g.matErr = err
		b.mu.Unlock()
		for _, s := range waiters {
			b.deliver(s, StreamResult{Err: err})
		}
		return
	}
	g.sm = sm
	g.es = es
	g.matSpans = matSpans
	// Waiters keep their place at the head of the queue; the loop may
	// be asleep with nothing else live, so wake it.
	b.pending = append(waiters, b.pending...)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// starvedStream records a stream that failed to reserve KV this step
// with nothing preemptable, and the group it belongs to.
type starvedStream struct {
	g *planGroup
	s *stream
}

// byTier orders tiered streams (Priority >= 0) ahead of best-effort
// ones. A named sort.Interface instead of sort.SliceStable keeps the
// per-step comparison closure off the heap in the hot loop.
type byTier []*stream

func (t byTier) Len() int           { return len(t) }
func (t byTier) Swap(i, j int)      { t[i], t[j] = t[j], t[i] }
func (t byTier) Less(i, j int) bool { return t[i].req.Priority >= 0 && t[j].req.Priority < 0 }

// stepOnce runs one iteration of the step loop: per plan group, retire
// cancelled streams, advance each live stream's greedy-decode state
// machine by one token (emit at the loop head, then feed), reserve KV
// for every participant — preempting best-effort KV (or, when the
// loop has been starved long enough, same-class KV) before letting a
// stream starve — and run one batched forward for the group. Reports
// whether any stream made progress, plus the streams left KV-starved.
func (b *Batcher) stepOnce(desperate bool) (bool, []starvedStream) {
	progress := false
	var starved []starvedStream
	for _, g := range b.groups {
		if len(g.streams) == 0 {
			continue
		}
		maxSeq := g.sm.Cfg.MaxSeq
		// Phase 1: advance each stream's emission state and collect the
		// ones that want to feed a token this step.
		var cands []*stream
		for _, s := range append([]*stream(nil), g.streams...) {
			// Flush span state stashed at admission before anything can
			// retire the stream — outside b.mu, on this goroutine only.
			s.recordAdmitted()
			// Per-step ctx check: a cancelled stream retires with its
			// partial Response and frees its KV blocks before the next
			// forward.
			if err := s.ctx.Err(); err != nil {
				b.retire(g, s, s.resp, err, true)
				progress = true
				continue
			}
			// A panicked OnToken fails its stream alone; the loop never
			// ran the callback, the emitter just reports it.
			if err := s.emitFailure(); err != nil {
				b.retire(g, s, nil, err, false)
				progress = true
				continue
			}
			if s.consumed == len(s.seq) {
				// Emission point — the head of GenerateCached's decode
				// loop, byte for byte.
				if s.gen.NewTokens >= s.req.MaxNewTokens || len(s.seq) >= maxSeq {
					s.resp.Logits = s.logits
					b.retire(g, s, s.resp, nil, false)
					progress = true
					continue
				}
				if s.emit != nil && len(s.emit) >= cap(s.emit)-1 {
					// Token consumer has fallen TokenBuffer behind: park
					// the stream (skip its step; its KV stays) until the
					// emitter drains. Only the loop sends on emit, so
					// this check guarantees the send below cannot block
					// and one slot stays free for the terminal event.
					continue
				}
				best := 0
				for i, v := range s.logits {
					if v > s.logits[best] {
						best = i
					}
				}
				s.seq = append(s.seq, best)
				s.resp.GeneratedTokens = s.seq
				s.gen.NewTokens++
				b.mu.Lock()
				b.nTokens++
				b.mu.Unlock()
				if s.emit != nil {
					s.emit <- emitEvent{step: s.gen.NewTokens - 1, token: best}
				}
				if len(s.seq) >= maxSeq {
					s.resp.Logits = s.logits
					b.retire(g, s, s.resp, nil, false)
					progress = true
					continue
				}
			}
			if s.dec.Len() >= maxSeq {
				// Prompt longer than the model window: fail with the
				// error the decoder itself would raise.
				b.retire(g, s, nil, fmt.Errorf("model: decoder exceeded MaxSeq %d", maxSeq), false)
				progress = true
				continue
			}
			cands = append(cands, s)
		}
		// Phase 2: reserve KV, tiered streams first — a tiered stream
		// may preempt a best-effort holder, and ordering the reserves
		// this way guarantees the victim has not yet joined this step
		// (preempting a stream already in parts would corrupt the
		// batch). inStep protects only streams committed to the
		// forward about to run.
		sort.Stable(byTier(cands))
		var parts []*stream
		var decs []*model.Decoder
		var toks []int
		clear(b.inStep)
		inStep := b.inStep
		for _, s := range cands {
			if !s.dec.Reserve() {
				if s.kvWait.IsZero() {
					s.kvWait = time.Now()
				}
				preStart := time.Now()
				if !b.preemptFor(s, inStep, desperate) {
					// Starved. A stream holding nothing, with no KV
					// anywhere on the engine's budget to wait on (its
					// replicas' step loops charge the same buffer), can
					// never start — fail it; otherwise record the
					// starvation and retry after the poll (the loop
					// preempts same-class holders, then sheds, if this
					// persists).
					if s.dec.KVBytes() == 0 && b.eng.KVBytes() == 0 {
						b.retire(g, s, nil, ErrKVBudget, false)
						progress = true
					} else {
						starved = append(starved, starvedStream{g, s})
					}
					continue
				}
				s.tr.Interval(s.tr.Root(), obs.SpanKVPreempt, "", preStart, time.Now())
			}
			if !s.kvWait.IsZero() {
				// The stream's KV grant arrived after at least one
				// starved poll: record how long decode stalled on it.
				s.tr.Interval(s.tr.Root(), obs.SpanKVReserve, "", s.kvWait, time.Now())
				s.kvWait = time.Time{}
			}
			inStep[s] = true
			parts = append(parts, s)
			decs = append(decs, s.dec)
			toks = append(toks, s.seq[s.consumed])
		}
		if len(parts) == 0 {
			continue
		}
		stepStart := time.Now()
		logits, err := model.StepLogits(decs, toks)
		if err != nil {
			for _, s := range parts {
				b.retire(g, s, nil, err, false)
			}
			progress = true
			continue
		}
		stepEnd := time.Now()
		dur := stepEnd.Sub(stepStart)
		for i, s := range parts {
			s.logits = logits.Row(i)
			s.gen.StepCompute = append(s.gen.StepCompute, dur)
			s.steps.StepDone(len(s.gen.StepCompute)-1, stepStart, stepEnd)
			s.consumed++
		}
		b.mu.Lock()
		b.nSteps++
		b.nStepSeqs += uint64(len(parts))
		b.mu.Unlock()
		progress = true
	}
	return progress, starved
}

// preemptFor evicts other streams' KV to make room for a starved one:
// victims' pages are freed and their decode state rewinds to
// replay-from-zero — resumable because greedy decode recomputes
// identical KV bytes, and OnToken never re-fires because emission only
// happens once per position. A victim already stepping this round is
// never touched.
//
// Normally only best-effort (Priority<0) holders are preemptable, and
// only for tiered beneficiaries — evicting one best-effort stream for
// another just thrashes. When sameClass is set (the loop has been
// starved of all progress for kvStarvePreemptPolls), a beneficiary may
// also evict the largest holder of its own class, so a cohort that
// collectively exhausted the budget cannot livelock with every stream
// one page short. Best-effort beneficiaries never evict tiered
// holders. Victims are taken largest-KV-first, best-effort before
// tiered. Reports whether the reserve now succeeds.
func (b *Batcher) preemptFor(s *stream, inStep map[*stream]bool, sameClass bool) bool {
	tiered := s.req.Priority >= 0
	if !tiered && !sameClass {
		return false
	}
	for {
		var victim *stream
		var victimGroup *planGroup
		victimBest := false
		for _, g := range b.groups {
			for _, v := range g.streams {
				if v == s || inStep[v] || v.dec.KVBytes() == 0 {
					continue
				}
				vBest := v.req.Priority < 0
				if !vBest && !(tiered && sameClass) {
					continue
				}
				if victim == nil || (vBest && !victimBest) ||
					(vBest == victimBest && v.dec.KVBytes() > victim.dec.KVBytes()) {
					victim, victimGroup, victimBest = v, g, vBest
				}
			}
		}
		if victim == nil {
			return false
		}
		victim.dec.Release()
		victim.dec = model.NewPagedDecoder(victimGroup.sm, b.alloc)
		b.mu.Lock()
		b.nPreempted++
		b.nRecomputed += uint64(victim.consumed)
		b.mu.Unlock()
		victim.consumed = 0
		victim.logits = nil
		if s.dec.Reserve() {
			return true
		}
	}
}

func callOnToken(fn func(step, token int), step, token int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: OnToken panicked: %v", r)
		}
	}()
	fn(step, token)
	return nil
}

// retire removes a stream from its group, frees its KV pages, and
// delivers its terminal result exactly once (behind any undelivered
// token events, via the stream's emitter).
func (b *Batcher) retire(g *planGroup, s *stream, resp *Response, err error, cancelled bool) {
	s.steps.Flush()
	s.dec.Release()
	for i, v := range g.streams {
		if v == s {
			g.streams = append(g.streams[:i], g.streams[i+1:]...)
			break
		}
	}
	s.finishTotal()
	b.mu.Lock()
	b.active--
	if cancelled {
		b.nCancelled++
	} else if err == nil {
		b.nFinished++
	}
	b.mu.Unlock()
	b.deliver(s, StreamResult{Resp: resp, Err: err})
}
