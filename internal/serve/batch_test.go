package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
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

	b.mu.Lock()
	sizes := append([]int(nil), b.batchSizes...)
	b.mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("batched calls %v, want one batch of 3", sizes)
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
// fails, the scheduler retries each job unbatched so only the poisoned
// request errors — its batchmates still get their results.
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
}

// TestSchedulerDoAfterCloseCreatesNoQueue is the regression for the
// Close race: a submit for a never-seen model after Close must return
// ErrClosed without inserting a queue Close can no longer drain (an
// unclosed channel leak) or recording stats on a closed scheduler.
func TestSchedulerDoAfterCloseCreatesNoQueue(t *testing.T) {
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

// TestSchedulerCloseDoRace hammers Submit against Close under -race: no
// submit may create a queue after Close walked the map, and every
// submit must either be served, shed, or get ErrClosed.
func TestSchedulerCloseDoRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		b := &stubBackend{targets: twoModels()}
		s := New(b, Options{QueueDepth: 4, Workers: 1})
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
		go func() {
			defer wg.Done()
			<-start
			s.Close()
		}()
		close(start)
		wg.Wait()
		// Whatever queues exist were all created before Close and are
		// drained; their channels are closed, so workers have exited.
		if _, err := classify(context.Background(), s, "sentiment", []int{1}); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: post-close submit got %v, want ErrClosed", iter, err)
		}
	}
}
