package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sti/internal/pipeline"
)

// TestSchedulerSLODerivesDeadline: a request's own TargetLatency — not
// the model's default — sets its queue deadline, so a tight-SLO
// request behind a busy worker expires on its own clock.
func TestSchedulerSLODerivesDeadline(t *testing.T) {
	gate := make(chan struct{})
	// The model default is an hour: only the request's 5ms SLO can
	// explain an ErrDeadline here (5×5ms window, uncongested queue).
	b := &stubBackend{targets: map[string]time.Duration{"m": time.Hour}, gate: gate}
	s := New(b, Options{Workers: 1, Slack: 5})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer s.Close()
	defer releaseGate()

	first := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "m", []int{1})
		first <- err
	}()
	waitUntil(t, "worker pickup", func() bool { return b.calls.Load() > 0 })
	second := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "m", pipeline.Request{
			Task: pipeline.TaskClassify, Tokens: []int{2},
			TargetLatency: 5 * time.Millisecond,
		})
		second <- err
	}()
	waitUntil(t, "second queued", func() bool { return queueDepth(s, "m") == 1 })
	time.Sleep(60 * time.Millisecond) // let the 25ms SLO deadline lapse
	releaseGate()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; !errors.Is(err, ErrDeadline) {
		t.Fatalf("tight-SLO request got %v, want ErrDeadline from its own target", err)
	}
}

// TestSchedulerOverDeadlineDowngradesWhenCongested: at dequeue, an
// over-deadline job in a congested queue is demoted to a coarser tier
// (fresh halved window, Downgraded recorded) instead of shed; once the
// queue drains below the high-water mark, expiry sheds as before.
func TestSchedulerOverDeadlineDowngradesWhenCongested(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{targets: map[string]time.Duration{"m": 10 * time.Millisecond}, gate: gate}
	s := New(b, Options{QueueDepth: 2, Workers: 1, Slack: 5})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer s.Close()
	defer releaseGate()

	first := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "m", []int{1})
		first <- err
	}()
	waitUntil(t, "worker pickup", func() bool { return b.calls.Load() > 0 })

	// Two more requests fill the queue; the gated worker holds them
	// past their 50ms deadlines.
	second := make(chan *Result, 1)
	secondErr := make(chan error, 1)
	go func() {
		res, err := classify(context.Background(), s, "m", []int{2})
		second <- res
		secondErr <- err
	}()
	waitUntil(t, "second queued", func() bool { return queueDepth(s, "m") == 1 })
	third := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "m", []int{3})
		third <- err
	}()
	waitUntil(t, "queue full", func() bool { return queueDepth(s, "m") == 2 })
	time.Sleep(120 * time.Millisecond) // both queued deadlines lapse
	releaseGate()

	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// Second dequeues with one job still behind it (at the high-water
	// mark): downgraded and served, not shed.
	res := <-second
	if err := <-secondErr; err != nil {
		t.Fatalf("congested over-deadline job got %v, want a downgraded result", err)
	}
	if res.Tier == nil || !res.Tier.Downgraded {
		t.Fatalf("tier %+v, want Downgraded recorded", res.Tier)
	}
	// Third dequeues from a drained queue (below the mark): sheds.
	if err := <-third; !errors.Is(err, ErrDeadline) {
		t.Fatalf("uncongested over-deadline job got %v, want ErrDeadline", err)
	}
	st := s.Snapshot()
	if st.Downgraded != 1 || st.DeadlineMiss != 1 || st.Completed != 2 {
		t.Fatalf("snapshot %+v, want 1 downgraded + 1 deadline miss + 2 completed", st)
	}
}

// TestSchedulerBottomRungOverDeadlineStillSheds: the congestion
// demotion only applies where a coarser tier exists — a request whose
// SLO already sits at the ladder's bottom rung (half the model
// default) has nothing to demote to, so going over deadline sheds it
// with ErrDeadline even in a congested queue.
func TestSchedulerBottomRungOverDeadlineStillSheds(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{targets: map[string]time.Duration{"m": 10 * time.Millisecond}, gate: gate}
	s := New(b, Options{QueueDepth: 2, Workers: 1, Slack: 5})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer s.Close()
	defer releaseGate()

	first := make(chan error, 1)
	go func() {
		_, err := classify(context.Background(), s, "m", []int{1})
		first <- err
	}()
	waitUntil(t, "worker pickup", func() bool { return b.calls.Load() > 0 })
	// Both queued requests ride the 5ms bottom rung; the gated worker
	// holds them past their 25ms windows with the queue congested.
	queued := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Submit(context.Background(), "m", pipeline.Request{
				Task: pipeline.TaskClassify, Tokens: []int{2},
				TargetLatency: 5 * time.Millisecond,
			})
			queued <- err
		}()
	}
	waitUntil(t, "queue full", func() bool { return queueDepth(s, "m") == 2 })
	time.Sleep(80 * time.Millisecond)
	releaseGate()

	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-queued; !errors.Is(err, ErrDeadline) {
			t.Fatalf("bottom-rung over-deadline job got %v, want ErrDeadline", err)
		}
	}
	if st := s.Snapshot(); st.DeadlineMiss != 2 || st.Downgraded != 0 {
		t.Fatalf("snapshot %+v, want 2 deadline misses and no downgrades", st)
	}
}

// TestSchedulerBatchesGroupByTier: the accumulator never mixes SLO
// classes in one batched call — a batch executes on one plan, so a
// tight-SLO member would silently strip its relaxed batchmates'
// fidelity. Same-SLO jobs still amortize one stream.
func TestSchedulerBatchesGroupByTier(t *testing.T) {
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

	// Two tight and two relaxed classify jobs queue behind the gate.
	submit := func(target time.Duration, done chan *Result) {
		go func() {
			res, err := s.Submit(context.Background(), "sentiment", pipeline.Request{
				Task: pipeline.TaskClassify, Tokens: []int{2, 3}, TargetLatency: target,
			})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
	}
	// The tight jobs are queued before the relaxed ones, so one drain
	// holds the tight group first.
	tight := make(chan *Result, 2)
	relaxed := make(chan *Result, 2)
	for i := 0; i < 2; i++ {
		submit(100*time.Millisecond, tight)
	}
	waitUntil(t, "two tight queued", func() bool { return queueDepth(s, "sentiment") == 2 })
	for i := 0; i < 2; i++ {
		submit(400*time.Millisecond, relaxed)
	}
	waitUntil(t, "four queued", func() bool { return queueDepth(s, "sentiment") == 4 })
	releaseGate()

	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res := <-tight; res.Tier == nil || res.Tier.Target != 100*time.Millisecond {
			t.Fatalf("tight result tier %+v, want the 100ms tier", res.Tier)
		}
		if res := <-relaxed; res.Tier == nil || res.Tier.Target != 400*time.Millisecond {
			t.Fatalf("relaxed result tier %+v, want the 400ms tier", res.Tier)
		}
	}
	// After the lone first job, the four jobs drained as two
	// tier-consistent batches of 2, not one mixed batch of 4.
	if sizes := b.batchCalls(); len(sizes) != 3 || sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 2 {
		t.Fatalf("batched calls %v, want the lone first job then two tier-grouped batches of 2", sizes)
	}
	// The drain's groups run in drain order: no newer group overtakes
	// an older one.
	if targets := b.batchCallTargets(); targets[1] != 100*time.Millisecond || targets[2] != 400*time.Millisecond {
		t.Fatalf("batched call targets %v, want the tight group before the relaxed one", targets)
	}
	st := s.Snapshot()
	ms := st.Models[0]
	if ms.ServedByTier["100ms"] != 2 || ms.ServedByTier["400ms"] != 2 {
		t.Fatalf("served_by_tier %v, want 2 per SLO class", ms.ServedByTier)
	}
	if ms.PlanCacheHits != 5 || ms.PlanCacheMisses != 0 {
		t.Fatalf("plan cache %d hits / %d misses, want 5/0", ms.PlanCacheHits, ms.PlanCacheMisses)
	}
}
