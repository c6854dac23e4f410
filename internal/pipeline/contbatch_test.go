package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sti/internal/model"
	"sti/internal/planner"
	"sti/internal/store"
)

// refGenerate decodes each request with model.Submodel.GenerateCached
// over one cold materialization of the plan on a fresh engine; every
// reference carries that single stream's stats. Model weights are
// seeded, so every engine over the same store decodes identically —
// the batcher must be byte-for-byte equal to these references.
func refGenerate(t *testing.T, reqs []Request) []*Response {
	t.Helper()
	eng, _, st := buildTinyEngine(t, 0)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	sm, stream, err := eng.Materialize(ctxbg, p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Response, len(reqs))
	for i, req := range reqs {
		seq, err := sm.GenerateCached(req.Tokens, req.MaxNewTokens)
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		out[i] = &Response{GeneratedTokens: seq, Stats: stream}
	}
	return out
}

func sameTokens(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: token %d = %d, want %d (%v vs %v)",
				label, i, got[i], want[i], got, want)
		}
	}
}

// TestBatcherMatchesSingleStream pins the equivalence claim: N
// concurrent generate requests pushed through the continuous batcher —
// including two admitted only after the first streams have started
// decoding — produce byte-identical token sequences to singly-run
// GenerateCached, and the whole cohort pays for exactly one shard
// materialization (flash bytes do not scale with stream count).
func TestBatcherMatchesSingleStream(t *testing.T) {
	prompts := [][]int{
		{1, 17, 23},
		{4, 9},
		{2, 2, 7, 11},
		{30, 5, 1},
		{8, 19, 3, 12, 6},
		{13},
	}
	steps := []int{8, 6, 5, 7, 4, 9}
	reqs := make([]Request, len(prompts))
	for i := range prompts {
		reqs[i] = Request{Task: TaskGenerate, Tokens: prompts[i], MaxNewTokens: steps[i]}
	}
	want := refGenerate(t, reqs)

	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	b := NewBatcher(eng, BatcherOptions{MaxStreams: 8})
	defer b.Close()

	// Streams 0..3 enter together; 4..5 are admitted late, only after
	// stream 0 has demonstrably produced a token mid-flight.
	started := make(chan struct{})
	var once sync.Once
	onTok := make([][]int, len(reqs))
	chans := make([]<-chan StreamResult, len(reqs))
	for i := range reqs {
		i := i
		reqs[i].OnToken = func(step, token int) {
			onTok[i] = append(onTok[i], token)
			if i == 0 {
				once.Do(func() { close(started) })
			}
		}
		if i == 4 {
			<-started
		}
		ch, err := b.Submit(ctxbg, p, reqs[i])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}

	var totalBytes int64
	paid := 0
	for i, ch := range chans {
		out := <-ch
		if out.Err != nil {
			t.Fatalf("stream %d: %v", i, out.Err)
		}
		sameTokens(t, "stream tokens", out.Resp.GeneratedTokens, want[i].GeneratedTokens)
		sameTokens(t, "OnToken stream", onTok[i], want[i].GeneratedTokens[len(prompts[i]):])
		if out.Resp.Gen.NewTokens != steps[i] {
			t.Fatalf("stream %d: NewTokens %d, want %d", i, out.Resp.Gen.NewTokens, steps[i])
		}
		if out.Resp.Stats.BytesRead > 0 {
			paid++
		}
		totalBytes += out.Resp.Stats.BytesRead
	}
	// One materialization serves the whole cohort: exactly one stream
	// carries the shard stream's cost, and it matches a single cold
	// run's BytesRead — late admits ride the same submodel for free.
	if paid != 1 {
		t.Fatalf("%d streams paid for materialization, want exactly 1", paid)
	}
	if ref := want[0].Stats.BytesRead; totalBytes != ref {
		t.Fatalf("cohort read %d bytes, single cold run reads %d", totalBytes, ref)
	}

	st2 := b.Stats()
	if st2.Finished != uint64(len(reqs)) || st2.Admitted != uint64(len(reqs)) {
		t.Fatalf("stats %+v, want %d admitted+finished", st2, len(reqs))
	}
	if st2.Steps == 0 || st2.AvgStreamsPerStep <= 1 {
		t.Fatalf("no batching happened: %+v", st2)
	}
	if eng.KVBytes() != 0 || b.KVBytes() != 0 {
		t.Fatalf("leaked KV: engine %d, allocator %d", eng.KVBytes(), b.KVBytes())
	}
}

// TestBatcherBestEffortPreemption pins the eviction order fix: when KV
// pages run out, a best-effort (Priority<0) stream is preempted — its
// KV evicted and later recomputed — rather than a tiered stream being
// starved or downgraded; both streams still finish byte-identical to
// their single-stream references.
func TestBatcherBestEffortPreemption(t *testing.T) {
	reqs := []Request{
		{Task: TaskGenerate, Tokens: []int{5, 11, 2, 9}, MaxNewTokens: 6, Priority: -1},
		{Task: TaskGenerate, Tokens: []int{7, 3, 14}, MaxNewTokens: 5},
	}
	want := refGenerate(t, reqs)

	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	// Measure one KV page for this plan's submodel, then pin the
	// engine grant to exactly that: only one stream can hold KV at a
	// time, so the tiered arrival must preempt the best-effort holder.
	sm, _, err := eng.Materialize(ctxbg, p)
	if err != nil {
		t.Fatal(err)
	}
	probe := model.NewPagedDecoder(sm, model.NewBlockAllocator(nil, 0))
	if !probe.Reserve() {
		t.Fatal("probe reserve failed")
	}
	pageBytes := probe.KVBytes()
	probe.Release()
	if pageBytes == 0 {
		t.Fatal("page bytes = 0")
	}
	eng.SetCacheBudget(pageBytes)

	// TokenBuffer 1: the step loop parks the best-effort stream (KV
	// held, not stepping) as soon as its gated OnToken consumer falls
	// one token behind — so it is provably mid-decode, holding the only
	// KV page, when the tiered stream is admitted. The loop itself
	// never blocks on the callback.
	b := NewBatcher(eng, BatcherOptions{MaxStreams: 4, TokenBuffer: 1})
	defer b.Close()

	// The first OnToken parks the emitter until the tiered stream is
	// staged, which parks the stream via buffer backpressure.
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	var bestTok []int
	reqs[0].OnToken = func(step, token int) {
		bestTok = append(bestTok, token)
		once.Do(func() {
			close(started)
			<-gate
		})
	}
	ch0, err := b.Submit(ctxbg, p, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	<-started // best-effort stream holds the only KV page mid-decode
	ch1, err := b.Submit(ctxbg, p, reqs[1])
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	out1 := <-ch1
	if out1.Err != nil {
		t.Fatalf("tiered stream: %v", out1.Err)
	}
	sameTokens(t, "tiered tokens", out1.Resp.GeneratedTokens, want[1].GeneratedTokens)
	out0 := <-ch0
	if out0.Err != nil {
		t.Fatalf("best-effort stream: %v", out0.Err)
	}
	sameTokens(t, "best-effort tokens", out0.Resp.GeneratedTokens, want[0].GeneratedTokens)
	// OnToken must not re-fire for replayed positions after eviction.
	sameTokens(t, "best-effort OnToken", bestTok, want[0].GeneratedTokens[len(reqs[0].Tokens):])

	stats := b.Stats()
	if stats.Preempted == 0 {
		t.Fatalf("no preemption recorded: %+v", stats)
	}
	if stats.RecomputedTokens == 0 {
		t.Fatalf("preemption without recompute: %+v", stats)
	}
	if eng.KVBytes() != 0 || b.KVBytes() != 0 {
		t.Fatalf("leaked KV: engine %d, allocator %d", eng.KVBytes(), b.KVBytes())
	}
}

// TestBatcherCancelMidStream pins cancellation semantics: a ctx cancel
// mid-decode retires the stream with its partial response and ctx.Err,
// frees its KV blocks before the next step, and never disturbs the
// other in-flight sequences.
func TestBatcherCancelMidStream(t *testing.T) {
	reqs := []Request{
		{Task: TaskGenerate, Tokens: []int{1, 17, 23}, MaxNewTokens: 12},
		{Task: TaskGenerate, Tokens: []int{4, 9, 2}, MaxNewTokens: 8},
	}
	want := refGenerate(t, []Request{reqs[1]})

	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	// TokenBuffer 1: the gated OnToken below parks its own stream (via
	// buffer backpressure) a couple of tokens in, so the stream is
	// provably still mid-decode with KV held when cancel() lands; the
	// survivor keeps decoding meanwhile.
	b := NewBatcher(eng, BatcherOptions{MaxStreams: 4, TokenBuffer: 1})
	defer b.Close()

	// The first OnToken parks the stream's emitter until cancel() has
	// landed.
	cctx, cancel := context.WithCancel(ctxbg)
	defer cancel()
	fired := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	reqs[0].OnToken = func(step, token int) {
		once.Do(func() {
			close(fired)
			<-gate
		})
	}
	ch0, err := b.Submit(cctx, p, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	ch1, err := b.Submit(ctxbg, p, reqs[1])
	if err != nil {
		t.Fatal(err)
	}
	<-fired
	cancel()
	close(gate)

	out0 := <-ch0
	if !errors.Is(out0.Err, context.Canceled) {
		t.Fatalf("cancelled stream err = %v, want context.Canceled", out0.Err)
	}
	if out0.Resp == nil || out0.Resp.Gen.NewTokens == 0 {
		t.Fatalf("cancelled stream lost its partial response: %+v", out0.Resp)
	}
	out1 := <-ch1
	if out1.Err != nil {
		t.Fatalf("survivor: %v", out1.Err)
	}
	sameTokens(t, "survivor tokens", out1.Resp.GeneratedTokens, want[0].GeneratedTokens)

	stats := b.Stats()
	if stats.Cancelled != 1 || stats.Finished != 1 {
		t.Fatalf("stats %+v, want 1 cancelled + 1 finished", stats)
	}
	if eng.KVBytes() != 0 || b.KVBytes() != 0 {
		t.Fatalf("leaked KV: engine %d, allocator %d", eng.KVBytes(), b.KVBytes())
	}
}

// TestBatcherCloseDeliversTerminalResults pins shutdown: pending
// streams fail with ErrBatcherClosed, in-flight streams get their
// partial responses, and no KV bytes remain charged.
func TestBatcherCloseDeliversTerminalResults(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	// MaxStreams 1 + TokenBuffer 1: the gated stream occupies the only
	// slot and parks on buffer backpressure, so it is still mid-decode
	// when Close lands and every probe stays pending until shutdown.
	b := NewBatcher(eng, BatcherOptions{MaxStreams: 1, TokenBuffer: 1})

	// The first OnToken parks the stream via its emitter; probes
	// submitted meanwhile queue behind the occupied slot and get failed
	// on shutdown.
	fired := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	req := Request{Task: TaskGenerate, Tokens: []int{1, 2, 3}, MaxNewTokens: 20,
		OnToken: func(step, token int) {
			once.Do(func() {
				close(fired)
				<-gate
			})
		}}
	ch, err := b.Submit(ctxbg, p, req)
	if err != nil {
		t.Fatal(err)
	}
	<-fired
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	// Submit probes until Close has marked the batcher closed; earlier
	// probes queue behind the parked loop and get failed on shutdown.
	var pendingChans []<-chan StreamResult
	probe := Request{Task: TaskGenerate, Tokens: []int{4, 5}, MaxNewTokens: 2}
	for {
		pch, err := b.Submit(ctxbg, p, probe)
		if errors.Is(err, ErrBatcherClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pendingChans = append(pendingChans, pch)
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-closed
	out := <-ch
	if !errors.Is(out.Err, ErrBatcherClosed) {
		t.Fatalf("err = %v, want ErrBatcherClosed", out.Err)
	}
	if out.Resp == nil || out.Resp.Gen.NewTokens == 0 {
		t.Fatalf("in-flight stream lost its partial response on close: %+v", out.Resp)
	}
	for i, pch := range pendingChans {
		if pout := <-pch; !errors.Is(pout.Err, ErrBatcherClosed) {
			t.Fatalf("pending probe %d: err = %v, want ErrBatcherClosed", i, pout.Err)
		}
	}
	if _, err := b.Submit(ctxbg, p, req); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("submit after close = %v, want ErrBatcherClosed", err)
	}
	if eng.KVBytes() != 0 || b.KVBytes() != 0 {
		t.Fatalf("leaked KV: engine %d, allocator %d", eng.KVBytes(), b.KVBytes())
	}
}

// TestBatcherSlowConsumerDoesNotStallOthers pins the delivery
// decoupling: OnToken runs on a per-stream emitter goroutine behind a
// bounded token buffer, so one stalled token consumer parks only its
// own stream — every other in-flight sequence keeps decoding and
// finishing. Under the old inline-callback design this test deadlocks:
// the stalled callback held the shared step loop, so the fast stream
// could never complete.
func TestBatcherSlowConsumerDoesNotStallOthers(t *testing.T) {
	reqs := []Request{
		{Task: TaskGenerate, Tokens: []int{3, 8, 1}, MaxNewTokens: 6},
		{Task: TaskGenerate, Tokens: []int{9, 4}, MaxNewTokens: 8},
	}
	want := refGenerate(t, reqs)

	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	b := NewBatcher(eng, BatcherOptions{MaxStreams: 4, TokenBuffer: 1})
	defer b.Close()

	// Stream 0's consumer stalls inside its first OnToken until the
	// fast stream has fully finished — a slow SSE client, in effect.
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	var slowTok []int
	reqs[0].OnToken = func(step, token int) {
		slowTok = append(slowTok, token)
		once.Do(func() {
			close(started)
			<-gate
		})
	}
	ch0, err := b.Submit(ctxbg, p, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	<-started // consumer now stuck mid-callback
	ch1, err := b.Submit(ctxbg, p, reqs[1])
	if err != nil {
		t.Fatal(err)
	}
	// The fast stream must run to completion while stream 0's consumer
	// is still parked.
	out1 := <-ch1
	if out1.Err != nil {
		t.Fatalf("fast stream: %v", out1.Err)
	}
	sameTokens(t, "fast stream tokens", out1.Resp.GeneratedTokens, want[1].GeneratedTokens)

	close(gate)
	out0 := <-ch0
	if out0.Err != nil {
		t.Fatalf("slow stream: %v", out0.Err)
	}
	sameTokens(t, "slow stream tokens", out0.Resp.GeneratedTokens, want[0].GeneratedTokens)
	// Every token event is delivered before the terminal result, none
	// dropped and none repeated.
	sameTokens(t, "slow OnToken stream", slowTok, want[0].GeneratedTokens[len(reqs[0].Tokens):])

	stats := b.Stats()
	if stats.Finished != 2 {
		t.Fatalf("stats %+v, want 2 finished", stats)
	}
	if eng.KVBytes() != 0 || b.KVBytes() != 0 {
		t.Fatalf("leaked KV: engine %d, allocator %d", eng.KVBytes(), b.KVBytes())
	}
}

// TestBatcherSameClassStarvation pins the livelock escape: when live
// streams of one priority class collectively exhaust the KV budget and
// each needs one more page, the loop must not poll forever — after
// sustained starvation it preempts a same-class holder (resumable via
// recompute), and a stream the grant can never serve is failed with
// ErrKVBudget instead of hanging to its deadline.
func TestBatcherSameClassStarvation(t *testing.T) {
	// Both streams cross one page boundary (18 positions > 16), so each
	// eventually needs two pages.
	reqs := []Request{
		{Task: TaskGenerate, Tokens: []int{5, 11, 2, 9}, MaxNewTokens: 14},
		{Task: TaskGenerate, Tokens: []int{7, 3, 14}, MaxNewTokens: 15},
	}
	want := refGenerate(t, reqs)

	t.Run("tiered cohort preempts itself", func(t *testing.T) {
		eng, _, st := buildTinyEngine(t, 1<<20)
		p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
		pageBytes := pageOf(t, eng, p)
		// Two pages total: both streams hold one page each, then both
		// need a second — no best-effort victim anywhere. Without
		// same-class preemption every step starves forever.
		eng.SetCacheBudget(2 * pageBytes)
		b := NewBatcher(eng, BatcherOptions{MaxStreams: 4})
		defer b.Close()

		ch0, err := b.Submit(ctxbg, p, reqs[0])
		if err != nil {
			t.Fatal(err)
		}
		ch1, err := b.Submit(ctxbg, p, reqs[1])
		if err != nil {
			t.Fatal(err)
		}
		out0, out1 := <-ch0, <-ch1
		if out0.Err != nil || out1.Err != nil {
			t.Fatalf("streams failed: %v / %v", out0.Err, out1.Err)
		}
		sameTokens(t, "stream 0", out0.Resp.GeneratedTokens, want[0].GeneratedTokens)
		sameTokens(t, "stream 1", out1.Resp.GeneratedTokens, want[1].GeneratedTokens)
		stats := b.Stats()
		if stats.Preempted == 0 || stats.RecomputedTokens == 0 {
			t.Fatalf("no same-class preemption recorded: %+v", stats)
		}
		if eng.KVBytes() != 0 || b.KVBytes() != 0 {
			t.Fatalf("leaked KV: engine %d, allocator %d", eng.KVBytes(), b.KVBytes())
		}
	})

	t.Run("oversized stream sheds with ErrKVBudget", func(t *testing.T) {
		eng, _, st := buildTinyEngine(t, 1<<20)
		p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
		pageBytes := pageOf(t, eng, p)
		// One page: a lone stream needing a second page has nothing to
		// preempt and nothing to wait for — it must be failed, not
		// polled at 1ms forever.
		eng.SetCacheBudget(pageBytes)
		b := NewBatcher(eng, BatcherOptions{MaxStreams: 4})
		defer b.Close()

		ch, err := b.Submit(ctxbg, p, reqs[0])
		if err != nil {
			t.Fatal(err)
		}
		out := <-ch
		if !errors.Is(out.Err, ErrKVBudget) {
			t.Fatalf("err = %v, want ErrKVBudget", out.Err)
		}
		if eng.KVBytes() != 0 || b.KVBytes() != 0 {
			t.Fatalf("leaked KV: engine %d, allocator %d", eng.KVBytes(), b.KVBytes())
		}
	})
}

// pageOf measures one KV page of the plan's submodel.
func pageOf(t *testing.T, eng *Engine, p *planner.Plan) int64 {
	t.Helper()
	sm, _, err := eng.Materialize(ctxbg, p)
	if err != nil {
		t.Fatal(err)
	}
	probe := model.NewPagedDecoder(sm, model.NewBlockAllocator(nil, 0))
	if !probe.Reserve() {
		t.Fatal("probe reserve failed")
	}
	defer probe.Release()
	return probe.KVBytes()
}

// TestBatcherReplicaWaitsOnSharedKV: the step loops of a model's
// replicas charge one KV budget. A stream on one replica that cannot
// get a page while another replica's stream holds it and keeps
// decoding waits for the page; it is not shed as starved.
func TestBatcherReplicaWaitsOnSharedKV(t *testing.T) {
	reqs := []Request{
		{Task: TaskGenerate, Tokens: []int{5, 11, 2, 9}, MaxNewTokens: 10}, // 14 positions: one page
		{Task: TaskGenerate, Tokens: []int{7, 3, 14}, MaxNewTokens: 5},
	}
	want := refGenerate(t, reqs)

	eng, _, st := buildTinyEngine(t, 1<<20)
	p, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	eng.SetCacheBudget(pageOf(t, eng, p)) // one stream's page fits, two do not
	a := NewBatcher(eng, BatcherOptions{MaxStreams: 4, TokenBuffer: 1})
	defer a.Close()
	b := NewBatcher(NewReplica(eng), BatcherOptions{MaxStreams: 4})
	defer b.Close()

	// The holder's consumer takes 30 ms a token, so it keeps the only
	// page for about 300 ms while it decodes: past kvStarveFailPolls
	// polls of the waiting loop.
	holding := make(chan struct{})
	var once sync.Once
	slow := reqs[0]
	slow.OnToken = func(step, token int) {
		once.Do(func() { close(holding) })
		time.Sleep(30 * time.Millisecond)
	}
	chA, err := a.Submit(ctxbg, p, slow)
	if err != nil {
		t.Fatal(err)
	}
	<-holding
	chB, err := b.Submit(ctxbg, p, reqs[1])
	if err != nil {
		t.Fatal(err)
	}
	outA, outB := <-chA, <-chB
	if outA.Err != nil || outB.Err != nil {
		t.Fatalf("streams failed: holder %v, waiter %v", outA.Err, outB.Err)
	}
	sameTokens(t, "holder", outA.Resp.GeneratedTokens, want[0].GeneratedTokens)
	sameTokens(t, "waiter", outB.Resp.GeneratedTokens, want[1].GeneratedTokens)
	if eng.KVBytes() != 0 || a.KVBytes() != 0 || b.KVBytes() != 0 {
		t.Fatalf("leaked KV: engine %d, allocators %d and %d", eng.KVBytes(), a.KVBytes(), b.KVBytes())
	}
}

// gatedReader wraps a PayloadReader; while held, the first read parks
// (signalling entered) until the gate opens — a stand-in for a slow
// flash/IO pass during shard materialization.
type gatedReader struct {
	inner   store.PayloadReader
	hold    atomic.Bool
	once    sync.Once
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedReader) ReadShardPayload(layer, slice, bits int) ([]byte, error) {
	if g.hold.Load() {
		g.once.Do(func() { close(g.entered) })
		<-g.gate
	}
	return g.inner.ReadShardPayload(layer, slice, bits)
}

// TestBatcherMaterializeOffLoop pins the async-materialization fix:
// admitting the first stream of a new plan kicks off Engine.Materialize
// on its own goroutine, so a multi-second shard-stream IO pass neither
// stalls decoding of in-flight streams on other plans nor delays
// retirement of ctx-cancelled streams parked behind the same IO.
func TestBatcherMaterializeOffLoop(t *testing.T) {
	reqs := []Request{
		{Task: TaskGenerate, Tokens: []int{3, 8, 1}, MaxNewTokens: 6},
		{Task: TaskGenerate, Tokens: []int{9, 4}, MaxNewTokens: 8},
	}
	want := refGenerate(t, reqs)

	eng, _, st := buildTinyEngine(t, 1<<20)
	src := &gatedReader{inner: st, entered: make(chan struct{}), gate: make(chan struct{})}
	eng.SetPayloadSource(src)
	// Two distinct plan pointers → two batcher groups, each with its own
	// materialization.
	pA, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	pB, _ := tinyPlan(t, st, 100*time.Millisecond, 0)
	b := NewBatcher(eng, BatcherOptions{MaxStreams: 4, TokenBuffer: 1})
	defer b.Close()

	// Stream A materializes plan A ungated, then parks mid-decode via
	// token-buffer backpressure — live, holding KV, not finished.
	started := make(chan struct{})
	aGate := make(chan struct{})
	var once sync.Once
	reqs[0].OnToken = func(step, token int) {
		once.Do(func() {
			close(started)
			<-aGate
		})
	}
	chA, err := b.Submit(ctxbg, pA, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Plan B's materialization now blocks in IO.
	src.hold.Store(true)
	chB, err := b.Submit(ctxbg, pB, reqs[1])
	if err != nil {
		t.Fatal(err)
	}
	<-src.entered // loop admitted B and the IO pass is parked off-loop

	// A ctx-cancelled stream waiting on the same materialization must
	// retire immediately, not after the IO pass finishes.
	cctx, cancel := context.WithCancel(context.Background())
	chC, err := b.Submit(cctx, pB, Request{Task: TaskGenerate, Tokens: []int{1, 2}, MaxNewTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	outC := <-chC
	if !errors.Is(outC.Err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", outC.Err)
	}

	// Stream A must decode to completion while plan B's IO is still
	// parked — the step loop cannot be inside Materialize.
	close(aGate)
	outA := <-chA
	if outA.Err != nil {
		t.Fatalf("stream A: %v", outA.Err)
	}
	sameTokens(t, "stream A tokens", outA.Resp.GeneratedTokens, want[0].GeneratedTokens)
	select {
	case <-src.gate:
		t.Fatal("materialization gate opened early")
	default:
	}

	close(src.gate)
	outB := <-chB
	if outB.Err != nil {
		t.Fatalf("stream B: %v", outB.Err)
	}
	sameTokens(t, "stream B tokens", outB.Resp.GeneratedTokens, want[1].GeneratedTokens)
	if eng.KVBytes() != 0 || b.KVBytes() != 0 {
		t.Fatalf("leaked KV: engine %d, allocator %d", eng.KVBytes(), b.KVBytes())
	}
}
