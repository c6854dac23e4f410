package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sti/internal/pipeline"
)

// TestSchedulerDropsCancelledWhileQueued pins the claim the worker
// path makes ("the worker will notice ctx and drop the job"): a job
// whose context is cancelled while it waits in the queue must never
// reach the backend.
func TestSchedulerDropsCancelledWhileQueued(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{targets: twoModels(), gate: gate}
	s := New(b, Options{Workers: 1, Slack: 1000})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer s.Close()
	defer releaseGate()

	// First request occupies the single worker.
	first := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "sentiment", []int{1})
		first <- err
	}()
	waitUntil(t, "worker pickup", func() bool { return b.calls.Load() > 0 })

	// Second request queues behind it, then its caller gives up.
	const cancelledTok = 7777
	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, err := classify(ctx, s, "sentiment", []int{cancelledTok})
		second <- err
	}()
	waitUntil(t, "second queued", func() bool { return queueDepth(s, "sentiment") == 1 })
	cancel()
	if err := <-second; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit got %v, want context.Canceled", err)
	}

	releaseGate()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// Let the worker drain the queue, then prove the cancelled job never
	// executed: the backend saw exactly one request, and not the
	// cancelled one.
	waitUntil(t, "queue drained", func() bool { return queueDepth(s, "sentiment") == 0 })
	s.Close()
	b.mu.Lock()
	served := append([][]int(nil), b.servedTok...)
	b.mu.Unlock()
	if len(served) != 1 || served[0][0] == cancelledTok {
		t.Fatalf("backend executed %v, want only the first request", served)
	}
	if st := s.Snapshot(); st.Completed != 1 {
		t.Fatalf("snapshot %+v, want exactly 1 completed", st)
	}
}

// TestSchedulerGenerateRunsSingly drives a mixed queue through one
// worker: the classify jobs drain into one batched call while the
// generate job runs singly, streaming its tokens through OnToken.
func TestSchedulerGenerateRunsSingly(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{targets: twoModels(), gate: gate}
	s := New(b, Options{Workers: 1, MaxBatch: 8, BatchWindow: 50 * time.Millisecond, Slack: 1000})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer s.Close()
	defer releaseGate()

	first := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "sentiment", []int{1})
		first <- err
	}()
	waitUntil(t, "worker pickup", func() bool { return b.calls.Load() > 0 })

	// Two classify jobs and one generate job queue behind the gate.
	classifyDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := classify(context.Background(), s, "sentiment", []int{2, 3})
			classifyDone <- err
		}()
	}
	var mu sync.Mutex
	var streamed []int
	genDone := make(chan *Result, 1)
	genErr := make(chan error, 1)
	go func() {
		res, err := s.Submit(context.Background(), "sentiment", pipeline.Request{
			Task: pipeline.TaskGenerate, Tokens: []int{9}, MaxNewTokens: 3,
			OnToken: func(step, token int) {
				mu.Lock()
				streamed = append(streamed, token)
				mu.Unlock()
			},
		})
		genDone <- res
		genErr <- err
	}()
	waitUntil(t, "three queued", func() bool { return queueDepth(s, "sentiment") == 3 })
	releaseGate()

	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-classifyDone; err != nil {
			t.Fatal(err)
		}
	}
	res := <-genDone
	if err := <-genErr; err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.GeneratedTokens) != 4 || res.Gen == nil || res.Gen.NewTokens != 3 {
		t.Fatalf("generate result %+v, want prompt+3 tokens", res)
	}
	if res.Batch != 1 {
		t.Fatalf("generate batch %d, want 1 (generate never batches)", res.Batch)
	}
	mu.Lock()
	nStreamed := len(streamed)
	mu.Unlock()
	if nStreamed != 3 {
		t.Fatalf("OnToken streamed %d tokens, want 3", nStreamed)
	}
	// After the lone first job, the two classify jobs came out as one
	// batch of 2; the generate job never joined a batched call.
	if sizes := b.batchCalls(); len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 2 {
		t.Fatalf("batched calls %v, want the lone first job then one classify batch of 2", sizes)
	}
	if st := s.Snapshot(); st.GeneratedTokens != 3 {
		t.Fatalf("snapshot %+v, want 3 generated tokens", st)
	}
}

// TestSchedulerBestEffortDowngradesNotSheds: past the high-water mark
// a Priority < 0 request is demoted to a coarser plan tier — admitted
// and served degraded (Downgraded recorded in its tier) — instead of
// shed; only a genuinely full queue sheds it like everyone else.
func TestSchedulerBestEffortDowngradesNotSheds(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{targets: twoModels(), gate: gate}
	s := New(b, Options{QueueDepth: 2, Workers: 1, Slack: 1000})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer s.Close()
	defer releaseGate()

	results := make(chan error, 2)
	go func() {
		_, err := classify(context.Background(), s, "sentiment", []int{1})
		results <- err
	}()
	waitUntil(t, "worker pickup", func() bool { return b.calls.Load() > 0 })
	go func() {
		_, err := classify(context.Background(), s, "sentiment", []int{1})
		results <- err
	}()
	waitUntil(t, "one queued", func() bool { return queueDepth(s, "sentiment") == 1 })

	// Queue is at the high-water mark (1/2): best-effort is admitted
	// but demoted to a coarser tier, not shed.
	bestEffort := make(chan *Result, 1)
	bestEffortErr := make(chan error, 1)
	go func() {
		res, err := s.Submit(context.Background(), "sentiment", pipeline.Request{
			Task: pipeline.TaskClassify, Tokens: []int{1}, Priority: -1,
		})
		bestEffort <- res
		bestEffortErr <- err
	}()
	waitUntil(t, "two queued", func() bool { return queueDepth(s, "sentiment") == 2 })

	// Queue is now truly full: best-effort AND normal traffic shed.
	_, err := s.Submit(context.Background(), "sentiment", pipeline.Request{
		Task: pipeline.TaskClassify, Tokens: []int{1}, Priority: -1,
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("best-effort at full depth got %v, want ErrQueueFull", err)
	}
	releaseGate()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	res := <-bestEffort
	if err := <-bestEffortErr; err != nil {
		t.Fatalf("congested best-effort must be served degraded, got %v", err)
	}
	if res.Tier == nil || !res.Tier.Downgraded {
		t.Fatalf("downgraded request's tier %+v must record Downgraded", res.Tier)
	}
	st := s.Snapshot()
	if st.Shed != 1 || st.Completed != 3 || st.Downgraded != 1 {
		t.Fatalf("snapshot %+v, want 1 shed + 3 completed + 1 downgraded", st)
	}
}

// TestSchedulerGenerateDeadlineStopsDecode: a generate job whose
// deadline lapses mid-decode stops within one token and reports
// ErrDeadline with the partial sequence.
func TestSchedulerGenerateDeadlineStopsDecode(t *testing.T) {
	b := &stubBackend{
		targets:   map[string]time.Duration{"m": 10 * time.Millisecond},
		stepDelay: 30 * time.Millisecond,
	}
	// Deadline = 6×10ms = 60ms: the decode fits ~2 of the requested 50
	// tokens before the per-token check stops it.
	s := New(b, Options{Workers: 1, Slack: 6})
	defer s.Close()

	res, err := s.Submit(context.Background(), "m", pipeline.Request{
		Task: pipeline.TaskGenerate, Tokens: []int{1}, MaxNewTokens: 50,
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err %v, want ErrDeadline", err)
	}
	if res == nil || res.Gen == nil {
		t.Fatal("deadline-stopped generate must return the partial result")
	}
	if res.Gen.NewTokens == 0 || res.Gen.NewTokens >= 50 {
		t.Fatalf("decoded %d tokens, want a partial decode", res.Gen.NewTokens)
	}
	if st := s.Snapshot(); st.DeadlineMiss != 1 {
		t.Fatalf("snapshot %+v, want 1 deadline miss", st)
	}
}

// genGateBackend blocks generate serves on a test-controlled gate
// (classify traffic passes through untouched), and signals when the
// first generate has actually entered the backend — i.e. holds a
// stream slot.
type genGateBackend struct {
	*stubBackend
	genGate chan struct{}
	entered chan struct{}
	once    sync.Once
}

// doneCounter counts Done calls: a queued generate's context is asked
// for Done once by Submit, waiting for its outcome, and once by the
// worker that parks the job on the stream cap.
type doneCounter struct {
	context.Context
	calls atomic.Int64
}

func (c *doneCounter) Done() <-chan struct{} {
	c.calls.Add(1)
	return c.Context.Done()
}

func (b *genGateBackend) Serve(ctx context.Context, name string, req pipeline.Request) (*pipeline.Response, error) {
	if req.Task == pipeline.TaskGenerate {
		b.once.Do(func() { close(b.entered) })
		select {
		case <-b.genGate:
		case <-ctx.Done():
		}
	}
	return b.stubBackend.Serve(ctx, name, req)
}

// TestSchedulerDeadGenerateJobsDontHoldWorker pins the slot-wait fix:
// at the MaxStreams cap, a queue of already-cancelled generate jobs
// must shed without the worker blocking on the stream semaphore — live
// classify traffic behind them is served while the slot stays held.
func TestSchedulerDeadGenerateJobsDontHoldWorker(t *testing.T) {
	b := &genGateBackend{
		stubBackend: &stubBackend{targets: map[string]time.Duration{"m": 50 * time.Millisecond}},
		genGate:     make(chan struct{}),
		entered:     make(chan struct{}),
	}
	s := New(b, Options{Workers: 1, MaxStreams: 1, QueueDepth: 8, Slack: 1000})
	defer s.Close()

	// Occupy the only stream slot with a generate that parks in the
	// backend until the gate opens.
	liveErr := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "m", pipeline.Request{
			Task: pipeline.TaskGenerate, Tokens: []int{9}, MaxNewTokens: 2,
		})
		liveErr <- err
	}()
	<-b.entered

	// Queue a run of generate jobs whose callers are already gone. Each
	// Submit enqueues, then returns immediately on its dead context —
	// the jobs stay in the FIFO ahead of the classify below.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(cctx, "m", pipeline.Request{
			Task: pipeline.TaskGenerate, Tokens: []int{i}, MaxNewTokens: 2,
		}); !errors.Is(err, context.Canceled) {
			t.Fatalf("dead submit %d: err %v, want context.Canceled", i, err)
		}
	}

	// The classify behind them must be served while the slot is still
	// held: the worker sheds each dead job without a slot wait. Before
	// the fix it blocked on the semaphore under the first dead job until
	// the live stream finished.
	classified := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "m", pipeline.Request{
			Task: pipeline.TaskClassify, Tokens: []int{1, 2, 3},
		})
		classified <- err
	}()
	select {
	case err := <-classified:
		if err != nil {
			t.Fatalf("classify: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("classify stuck behind dead generate jobs at the stream cap")
	}

	close(b.genGate)
	if err := <-liveErr; err != nil {
		t.Fatalf("live generate: %v", err)
	}
}

// TestSchedulerStreamCapDoesNotHoldGatherSeat: a worker parked on the
// MaxStreams cap has given its gather seat back, so with a single seat
// (GOMAXPROCS 1) the other worker still picks up and serves a classify
// while the stream slot stays held.
func TestSchedulerStreamCapDoesNotHoldGatherSeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := &genGateBackend{
		stubBackend: &stubBackend{targets: map[string]time.Duration{"m": 50 * time.Millisecond}},
		genGate:     make(chan struct{}),
		entered:     make(chan struct{}),
	}
	s := New(b, Options{Workers: 2, MaxStreams: 1, QueueDepth: 8, Slack: 1000})
	releaseGen := sync.OnceFunc(func() { close(b.genGate) })
	defer s.Close()
	defer releaseGen() // a failed check must not leave Close waiting on a parked stream

	generate := func(ctx context.Context, tok int, errs chan<- error) {
		go func() {
			_, err := s.Submit(ctx, "m", pipeline.Request{
				Task: pipeline.TaskGenerate, Tokens: []int{tok}, MaxNewTokens: 2,
			})
			errs <- err
		}()
	}
	// The first generate holds the only stream slot, parked in the
	// backend until the gate opens.
	genErrs := make(chan error, 2)
	generate(context.Background(), 1, genErrs)
	recvWithin(t, "live generate in backend", b.entered)

	// The second is dequeued by a worker that then parks on the full
	// stream semaphore.
	parked := &doneCounter{Context: context.Background()}
	generate(parked, 2, genErrs)
	waitUntil(t, "second generate parked on the stream cap", func() bool {
		return parked.calls.Load() == 2 && queueDepth(s, "m") == 0
	})

	classified := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "m", []int{1, 2, 3})
		classified <- err
	}()
	if err := recvWithin(t, "classify beside a worker parked on the stream cap", classified); err != nil {
		t.Fatalf("classify: %v", err)
	}

	releaseGen()
	for i := 0; i < 2; i++ {
		if err := recvWithin(t, "generate", genErrs); err != nil {
			t.Fatalf("generate: %v", err)
		}
	}
}
