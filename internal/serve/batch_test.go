package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sti/internal/pipeline"
)

// TestSchedulerBatchesQueuedJobs verifies the batch accumulator: jobs
// that pile up behind a busy worker drain into one batched backend
// call, and the stats expose the amortization (AvgBatch > 1, per-
// request bytes below one full stream).
func TestSchedulerBatchesQueuedJobs(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{targets: twoModels(), gate: gate}
	s := New(b, Options{Workers: 1, MaxBatch: 4, BatchWindow: 50 * time.Millisecond, Slack: 1000})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer s.Close()
	defer releaseGate()

	// First request occupies the single worker; three more queue behind
	// it and must come out as one batch of 3.
	results := make(chan error, 4)
	submit := func() {
		go func() {
			_, err := classify(context.Background(), s, "sentiment", []int{1, 2})
			results <- err
		}()
	}
	submit()
	waitUntil(t, "worker pickup", func() bool { return b.calls.Load() > 0 })
	for i := 0; i < 3; i++ {
		submit()
	}
	waitUntil(t, "three queued", func() bool { return queueDepth(s, "sentiment") == 3 })
	releaseGate()
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}

	if sizes := b.batchCalls(); len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 3 {
		t.Fatalf("batched calls %v, want the lone first job then one batch of 3", sizes)
	}
	st := s.Snapshot()
	if st.Completed != 4 || st.Batches != 2 {
		t.Fatalf("snapshot %+v, want 4 completed over 2 executions", st)
	}
	if st.AvgBatch != 2 {
		t.Fatalf("avg batch %v, want 2 (4 requests / 2 streams)", st.AvgBatch)
	}
	ms := st.Models[0]
	if ms.MaxBatch != 3 {
		t.Fatalf("max batch %d, want 3", ms.MaxBatch)
	}
	// Two streams served four requests: amortized IO is half a stream.
	if ms.BytesPerRequest != stubStreamBytes/2 {
		t.Fatalf("bytes/request %v, want %v", ms.BytesPerRequest, stubStreamBytes/2)
	}
}

// TestSchedulerIdleWorkersDoNotSplitABurst: a burst arriving at idle
// workers is gathered by at most min(Workers, GOMAXPROCS) of them, so
// it forms one batch per CPU — not one per worker, each reading its own
// shard stream. GOMAXPROCS is pinned rather than injected so the test
// exercises the scheduler's own derivation of the seat count.
func TestSchedulerIdleWorkersDoNotSplitABurst(t *testing.T) {
	for _, tc := range []struct {
		procs    int
		maxCalls int
	}{{1, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", tc.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			b := &stubBackend{targets: twoModels()}
			s := New(b, Options{Workers: 4, MaxBatch: 8, BatchWindow: time.Second, Slack: 1000})
			defer s.Close()

			// A generate spawns the worker pool without opening a batch
			// window, leaving every worker idle when the burst lands.
			if _, err := s.Submit(context.Background(), "sentiment", pipeline.Request{
				Task: pipeline.TaskGenerate, Tokens: []int{1}, MaxNewTokens: 1,
			}); err != nil {
				t.Fatal(err)
			}

			const burst = 8
			var wg sync.WaitGroup
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := classify(context.Background(), s, "sentiment", []int{1, 2}); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()

			sizes := b.batchCalls()
			total := 0
			for _, n := range sizes {
				total += n
			}
			if len(sizes) > tc.maxCalls || total != burst {
				t.Fatalf("batched calls %v, want at most %d call(s) serving all %d jobs", sizes, tc.maxCalls, burst)
			}
		})
	}
}

// TestSchedulerBatchExpiredJobShedsAlone pins the per-job deadline rule
// inside a drained batch: an expired job sheds with ErrDeadline while
// its batchmates are still served.
func TestSchedulerBatchExpiredJobShedsAlone(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{targets: map[string]time.Duration{"m": time.Hour}, gate: gate}
	s := New(b, Options{Workers: 1, MaxBatch: 4, BatchWindow: 20 * time.Millisecond, Slack: 1000})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer s.Close()
	defer releaseGate()

	first := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "m", []int{1})
		first <- err
	}()
	waitUntil(t, "worker pickup", func() bool { return b.calls.Load() > 0 })

	// "expiring" carries a ctx deadline that lapses while the gated
	// worker holds the first request; "patient" does not.
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	expiring := make(chan error, 1)
	go func() {
		_, err := classify(ctx, s, "m", []int{1})
		expiring <- err
	}()
	patient := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "m", []int{1, 2, 3})
		patient <- err
	}()
	waitUntil(t, "two queued", func() bool { return queueDepth(s, "m") == 2 })
	time.Sleep(60 * time.Millisecond) // let the ctx deadline lapse in-queue
	releaseGate()

	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-expiring; !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired batchmate got %v, want deadline error", err)
	}
	if err := <-patient; err != nil {
		t.Fatalf("patient batchmate must be served, got %v", err)
	}
	if st := s.Snapshot(); st.Completed != 2 {
		t.Fatalf("snapshot %+v, want exactly the 2 live requests completed", st)
	}
}

// TestSchedulerPoisonedBatchmateFailsAlone: when a batched execution
// fails, the scheduler retries each job as a batch of one so only the
// poisoned request errors — its batchmates still get their results.
func TestSchedulerPoisonedBatchmateFailsAlone(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{targets: twoModels(), gate: gate}
	const poisonTok = 666
	b.poison.Store(poisonTok)
	s := New(b, Options{Workers: 1, MaxBatch: 4, BatchWindow: 50 * time.Millisecond, Slack: 1000})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer s.Close()
	defer releaseGate()

	first := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "sentiment", []int{1})
		first <- err
	}()
	waitUntil(t, "worker pickup", func() bool { return b.calls.Load() > 0 })
	poisoned := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "sentiment", []int{poisonTok})
		poisoned <- err
	}()
	healthy := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "sentiment", []int{1, 2})
		healthy <- err
	}()
	waitUntil(t, "two queued", func() bool { return queueDepth(s, "sentiment") == 2 })
	releaseGate()

	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-poisoned; err == nil {
		t.Fatal("poisoned request must fail")
	}
	if err := <-healthy; err != nil {
		t.Fatalf("healthy batchmate must survive a poisoned batch, got %v", err)
	}
	if st := s.Snapshot(); st.Completed != 2 || st.Failed != 1 {
		t.Fatalf("snapshot %+v, want 2 completed + 1 failed", st)
	}
	// The lone first job, the failed batch of 2, then each batchmate
	// retried alone.
	if sizes := b.batchCalls(); len(sizes) != 4 || sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 1 || sizes[3] != 1 {
		t.Fatalf("batched calls %v, want [1 2 1 1]", sizes)
	}
}

// TestSchedulerSubmitAfterCloseCreatesNoQueue is the regression for
// the Close race: a submit for a never-seen model after Close must
// return ErrClosed without inserting a queue Close can no longer drain
// (an unclosed channel leak) or recording stats on a closed scheduler.
func TestSchedulerSubmitAfterCloseCreatesNoQueue(t *testing.T) {
	s := New(&stubBackend{targets: twoModels()}, Options{})
	s.Close()
	if _, err := classify(context.Background(), s, "sentiment", []int{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err %v, want ErrClosed", err)
	}
	if n := queueCount(s); n != 0 {
		t.Fatalf("%d queues created after Close, want 0", n)
	}
	// The expired-at-admission path must also refuse before touching
	// stats: pre-fix it created a queue just to count a deadline miss.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := classify(ctx, s, "nextword", []int{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err %v, want ErrClosed on expired submit", err)
	}
	if n := queueCount(s); n != 0 {
		t.Fatalf("%d queues created by expired submit after Close, want 0", n)
	}
}

// TestSchedulerCloseSubmitRace hammers Submit against Close under
// -race: no submit may create a queue after Close walked the map, and
// every submit must either be served, shed, or get ErrClosed. The
// GOMAXPROCS=1 case runs four workers on one gather seat, so Close must
// also release every worker parked waiting for the seat.
func TestSchedulerCloseSubmitRace(t *testing.T) {
	for _, tc := range []struct{ procs, workers int }{{runtime.GOMAXPROCS(0), 1}, {1, 4}} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d/workers=%d", tc.procs, tc.workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			closeSubmitRace(t, tc.workers)
		})
	}
}

func closeSubmitRace(t *testing.T, workers int) {
	for iter := 0; iter < 20; iter++ {
		b := &stubBackend{targets: twoModels()}
		s := New(b, Options{QueueDepth: 4, Workers: workers})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				model := "sentiment"
				if c%2 == 1 {
					model = "nextword"
				}
				_, err := classify(context.Background(), s, model, []int{1})
				if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
					t.Errorf("unexpected error %v", err)
				}
			}(c)
		}
		wg.Add(1)
		go func(yields int) {
			defer wg.Done()
			<-start
			// Land Close at a different point among the submits each
			// iteration: on one CPU it would otherwise always run first
			// and no queue would ever exist to close.
			for k := 0; k < yields; k++ {
				runtime.Gosched()
			}
			s.Close()
		}(iter % 5)
		close(start)
		wg.Wait()
		// Whatever queues exist were all created before Close and are
		// drained; their channels are closed, so workers have exited.
		if _, err := classify(context.Background(), s, "sentiment", []int{1}); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: post-close submit got %v, want ErrClosed", iter, err)
		}
	}
}

// TestSchedulerClassifyNeverCallsServe: a lone classify is a batch of
// one — it reaches the backend as a size-1 ServeBatch call, never
// through Serve (the stub's Serve fails every classify).
func TestSchedulerClassifyNeverCallsServe(t *testing.T) {
	b := &stubBackend{targets: twoModels()}
	s := New(b, Options{Workers: 1})
	defer s.Close()

	res, err := classify(context.Background(), s, "sentiment", []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch != 1 || res.Logits[0] != 3 || res.Stats == nil || res.Stats.BytesRead != stubStreamBytes || res.Tier == nil {
		t.Fatalf("lone classify result %+v, want a batch of one with its stream stats and tier", res)
	}
	if sizes := b.batchCalls(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("batched calls %v, want one batch of 1", sizes)
	}
	if st := s.Snapshot(); st.Completed != 1 || st.Batches != 1 || st.Failed != 0 {
		t.Fatalf("snapshot %+v, want 1 completed over 1 execution", st)
	}
}

// ctxBackend parks every ServeBatch call until the test releases it or
// the call's ctx is done, reporting each call's size on entry and the
// ctx error it saw on exit.
type ctxBackend struct {
	*stubBackend
	release chan struct{}
	entered chan int
	exited  chan error
}

func (b *ctxBackend) ServeBatch(ctx context.Context, name string, reqs []pipeline.Request) ([]*pipeline.Response, *pipeline.BatchStats, error) {
	b.entered <- len(reqs)
	select {
	case <-ctx.Done():
		b.exited <- ctx.Err()
		return nil, nil, ctx.Err()
	case <-b.release:
	}
	b.exited <- ctx.Err()
	return b.stubBackend.ServeBatch(ctx, name, reqs)
}

// TestSchedulerLoneClassifyRunsUnderCallerCtx: a lone classify runs
// under its caller's ctx, so a client that leaves mid-execution stops
// its shard stream — and that is not a failure. A shared batch runs
// under the background ctx: one member's client leaving aborts nothing.
func TestSchedulerLoneClassifyRunsUnderCallerCtx(t *testing.T) {
	b := &ctxBackend{
		stubBackend: &stubBackend{targets: twoModels()},
		release:     make(chan struct{}),
		entered:     make(chan int, 3), // one per ServeBatch call the test makes
		exited:      make(chan error, 3),
	}
	s := New(b, Options{Workers: 1, MaxBatch: 4, BatchWindow: 20 * time.Millisecond, Slack: 1000})
	defer s.Close()
	defer close(b.release) // a failed check must not leave a call parked under Close

	// A lone classify whose client leaves mid-execution.
	ctx, cancel := context.WithCancel(context.Background())
	lone := make(chan error, 1)
	go func() {
		_, err := classify(ctx, s, "sentiment", []int{1})
		lone <- err
	}()
	if n := recvWithin(t, "lone classify in ServeBatch", b.entered); n != 1 {
		t.Fatalf("lone classify reached ServeBatch as a batch of %d, want 1", n)
	}
	cancel()
	if err := recvWithin(t, "lone submit", lone); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit got %v, want context.Canceled", err)
	}
	if err := recvWithin(t, "lone execution exit", b.exited); !errors.Is(err, context.Canceled) {
		t.Fatalf("backend saw ctx error %v, want the caller's cancellation", err)
	}
	waitUntil(t, "cancelled execution settled", func() bool { return s.Snapshot().Batches == 1 })
	if st := s.Snapshot(); st.Failed != 0 || st.Completed != 0 {
		t.Fatalf("snapshot %+v, want a client cancel to be neither failed nor completed", st)
	}

	// A batch of 2 whose one member's client leaves mid-execution.
	first := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "sentiment", []int{1})
		first <- err
	}()
	recvWithin(t, "first job in ServeBatch", b.entered)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	leaving := make(chan error, 1)
	go func() {
		_, err := classify(ctx2, s, "sentiment", []int{2})
		leaving <- err
	}()
	// The leaving client's job leads the batch.
	waitUntil(t, "leaving job queued", func() bool { return queueDepth(s, "sentiment") == 1 })
	staying := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "sentiment", []int{3})
		staying <- err
	}()
	waitUntil(t, "two queued", func() bool { return queueDepth(s, "sentiment") == 2 })
	b.release <- struct{}{}
	recvWithin(t, "first job exit", b.exited)
	if err := recvWithin(t, "first submit", first); err != nil {
		t.Fatal(err)
	}
	if n := recvWithin(t, "batch in ServeBatch", b.entered); n != 2 {
		t.Fatalf("queued jobs reached ServeBatch as a batch of %d, want 2", n)
	}
	cancel2()
	if err := recvWithin(t, "leaving submit", leaving); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batchmate got %v, want context.Canceled", err)
	}
	b.release <- struct{}{}
	if err := recvWithin(t, "batch exit", b.exited); err != nil {
		t.Fatalf("shared batch saw ctx error %v, want the background ctx", err)
	}
	if err := recvWithin(t, "staying submit", staying); err != nil {
		t.Fatalf("batchmate of a leaving client got %v", err)
	}
	if st := s.Snapshot(); st.Failed != 0 || st.Batches != 3 {
		t.Fatalf("snapshot %+v, want 3 executions and no failure", st)
	}
}
