package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sti/internal/pipeline"
	"sti/internal/replica"
	"sti/internal/store"
)

// stubBackend fabricates inference results so scheduler behaviour can
// be tested without stores or planning.
type stubBackend struct {
	targets   map[string]time.Duration
	delay     time.Duration
	stepDelay time.Duration // per generated token, so deadlines can lapse mid-decode
	gate      chan struct{} // when non-nil, every execution blocks until the gate closes
	err       error
	panics    atomic.Bool
	poison    atomic.Int64 // when non-zero, a classify panics on tokens[0]==poison
	calls     atomic.Int64

	mu           sync.Mutex
	batchSizes   []int           // size of every batched call, in order
	batchTargets []time.Duration // first request's TargetLatency of every batched call, in order
	servedTok    [][]int         // first tokens of every executed request, in order
}

func (b *stubBackend) Names() []string {
	names := make([]string, 0, len(b.targets))
	for n := range b.targets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (b *stubBackend) Target(name string) (time.Duration, bool) {
	t, ok := b.targets[name]
	return t, ok
}

// infer fabricates one classify input's execution.
func (b *stubBackend) infer(tokens []int) ([]float32, error) {
	b.calls.Add(1)
	b.mu.Lock()
	b.servedTok = append(b.servedTok, append([]int(nil), tokens...))
	b.mu.Unlock()
	if b.gate != nil {
		<-b.gate
	}
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	if b.panics.Load() {
		panic("poisoned request")
	}
	if p := b.poison.Load(); p != 0 && len(tokens) > 0 && int64(tokens[0]) == p {
		panic("poisoned request")
	}
	if b.err != nil {
		return nil, b.err
	}
	return []float32{float32(len(tokens)), 0}, nil
}

// stubStreamBytes is what one stub execution stream "reads", batched or
// not — so per-request amortization is observable in stats.
const stubStreamBytes = 1000

// tier fabricates the tier record a fleet would resolve: the request's
// effective target (its own SLO or the model default), halved by a
// congestion downgrade.
func (b *stubBackend) tier(name string, req pipeline.Request) *pipeline.TierInfo {
	target := req.TargetLatency
	if target <= 0 {
		target = b.targets[name]
	}
	if req.Downgraded {
		target /= 2
	}
	return &pipeline.TierInfo{Target: target, Fidelity: 1, CacheHit: true, Downgraded: req.Downgraded}
}

// Serve takes generate only: the scheduler must send every classify,
// a lone one included, to ServeBatch, so a classify here fails.
func (b *stubBackend) Serve(ctx context.Context, name string, req pipeline.Request) (*pipeline.Response, error) {
	if req.Task != pipeline.TaskGenerate {
		return nil, fmt.Errorf("stub: %v request reached Serve; classify must go through ServeBatch", req.Task)
	}
	resp, err := b.generate(ctx, req)
	if resp != nil {
		resp.Tier = b.tier(name, req)
	}
	return resp, err
}

// generate fabricates a greedy decode: token s of step s, one
// stepDelay apart, honoring ctx per token like the real engine.
func (b *stubBackend) generate(ctx context.Context, req pipeline.Request) (*pipeline.Response, error) {
	b.calls.Add(1)
	b.mu.Lock()
	b.servedTok = append(b.servedTok, append([]int(nil), req.Tokens...))
	b.mu.Unlock()
	if b.gate != nil {
		<-b.gate
	}
	if b.err != nil {
		return nil, b.err
	}
	gen := &pipeline.GenStats{Stream: pipeline.ExecStats{BytesRead: stubStreamBytes}, PromptTokens: len(req.Tokens)}
	resp := &pipeline.Response{
		GeneratedTokens: append([]int(nil), req.Tokens...),
		Gen:             gen, Stats: &gen.Stream,
	}
	for s := 0; s < req.MaxNewTokens; s++ {
		if err := ctx.Err(); err != nil {
			return resp, err
		}
		if b.stepDelay > 0 {
			time.Sleep(b.stepDelay)
		}
		resp.GeneratedTokens = append(resp.GeneratedTokens, s)
		gen.NewTokens++
		if req.OnToken != nil {
			req.OnToken(s, s)
		}
	}
	return resp, nil
}

func (b *stubBackend) ServeBatch(ctx context.Context, name string, reqs []pipeline.Request) ([]*pipeline.Response, *pipeline.BatchStats, error) {
	b.mu.Lock()
	b.batchSizes = append(b.batchSizes, len(reqs))
	b.batchTargets = append(b.batchTargets, reqs[0].TargetLatency)
	b.mu.Unlock()
	out := make([]*pipeline.Response, len(reqs))
	bs := &pipeline.BatchStats{
		ExecStats: pipeline.ExecStats{BytesRead: stubStreamBytes},
		Batch:     len(reqs),
	}
	for i, req := range reqs {
		logits, err := b.infer(req.Tokens)
		if err != nil {
			return nil, nil, err
		}
		out[i] = &pipeline.Response{Logits: logits, Stats: &bs.ExecStats, Tier: b.tier(name, req)}
	}
	return out, bs, nil
}

// The stub has no replica pools or step loops: every stats query
// reports none.
func (b *stubBackend) ReplicaStats(string) (replica.PoolStats, bool) {
	return replica.PoolStats{}, false
}
func (b *stubBackend) SharedCacheStats(string) (store.CacheStats, bool) {
	return store.CacheStats{}, false
}
func (b *stubBackend) GenerateStats(string) (pipeline.StepLoopStats, bool) {
	return pipeline.StepLoopStats{}, false
}

// batchCalls returns the size of every ServeBatch call so far, in order.
func (b *stubBackend) batchCalls() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.batchSizes...)
}

// batchCallTargets returns the SLO target of every ServeBatch call so
// far, in order.
func (b *stubBackend) batchCallTargets() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Duration(nil), b.batchTargets...)
}

// classify submits one classify request for tokens and blocks until it
// completes.
func classify(ctx context.Context, s *Scheduler, model string, tokens []int) (*Result, error) {
	return s.Submit(ctx, model, pipeline.Request{Task: pipeline.TaskClassify, Tokens: tokens})
}

// queueDepth inspects a model's queue without creating one.
func queueDepth(s *Scheduler, model string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.queues[model]; ok {
		return len(q.jobs)
	}
	return 0
}

// queueCount reports how many model queues exist.
func queueCount(s *Scheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queues)
}

// waitUntil polls cond for up to 5s, failing the test on timeout so a
// missed signal can never hang the suite.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// recvWithin receives from ch, failing the test after 5s.
func recvWithin[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func twoModels() map[string]time.Duration {
	return map[string]time.Duration{
		"sentiment": 50 * time.Millisecond,
		"nextword":  80 * time.Millisecond,
	}
}

func TestSchedulerServesAndCounts(t *testing.T) {
	b := &stubBackend{targets: twoModels()}
	s := New(b, Options{})
	defer s.Close()

	for i := 0; i < 10; i++ {
		res, err := classify(context.Background(), s, "sentiment", []int{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Logits) != 2 || res.Logits[0] != 3 {
			t.Fatalf("bad logits %v", res.Logits)
		}
		if res.Total < res.Queued {
			t.Fatalf("total %v < queued %v", res.Total, res.Queued)
		}
	}
	st := s.Snapshot()
	if st.Completed != 10 || st.Shed != 0 || st.Failed != 0 {
		t.Fatalf("snapshot %+v, want 10 completed", st)
	}
	if len(st.Models) != 1 || st.Models[0].Model != "sentiment" {
		t.Fatalf("models %+v", st.Models)
	}
	if st.Models[0].P50 <= 0 || st.Models[0].P95 < st.Models[0].P50 {
		t.Fatalf("bad percentiles %+v", st.Models[0])
	}
	if st.Throughput <= 0 {
		t.Fatalf("throughput %v", st.Throughput)
	}
}

func TestSchedulerUnknownModel(t *testing.T) {
	s := New(&stubBackend{targets: twoModels()}, Options{})
	defer s.Close()
	if _, err := classify(context.Background(), s, "absent", []int{1}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("err %v, want ErrUnknownModel", err)
	}
}

func TestSchedulerBackendErrorPropagates(t *testing.T) {
	boom := errors.New("flash died")
	s := New(&stubBackend{targets: twoModels(), err: boom}, Options{})
	defer s.Close()
	if _, err := classify(context.Background(), s, "sentiment", []int{1}); !errors.Is(err, boom) {
		t.Fatalf("err %v, want backend error", err)
	}
	if st := s.Snapshot(); st.Failed != 1 {
		t.Fatalf("failed %d, want 1", st.Failed)
	}
}

func TestSchedulerSurvivesPanickingBackend(t *testing.T) {
	b := &stubBackend{targets: twoModels()}
	b.panics.Store(true)
	s := New(b, Options{Workers: 1})
	defer s.Close()
	if _, err := classify(context.Background(), s, "sentiment", []int{1}); err == nil {
		t.Fatal("panicking backend must surface an error")
	}
	// The worker survived the panic and keeps serving.
	b.panics.Store(false)
	if _, err := classify(context.Background(), s, "sentiment", []int{1}); err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot()
	if st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("snapshot %+v, want 1 failed + 1 completed", st)
	}
}

func TestSchedulerShedsWhenQueueFull(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{targets: twoModels(), gate: gate}
	s := New(b, Options{QueueDepth: 1, Workers: 1, Slack: 1000})
	// Release the gate before Close so a failing assertion can never
	// leave Close waiting on a gated worker.
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer s.Close()
	defer releaseGate()

	// First request occupies the single worker, then the second fills
	// the queue's single slot, so the third must shed. Submissions are
	// sequenced (pickup first, then enqueue) — racing them could shed
	// the second request instead.
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
	waitUntil(t, "queued request", func() bool { return queueDepth(s, "sentiment") > 0 })

	_, err := classify(context.Background(), s, "sentiment", []int{1})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err %v, want ErrQueueFull", err)
	}
	releaseGate()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	st := s.Snapshot()
	if st.Shed != 1 || st.Completed != 2 {
		t.Fatalf("snapshot %+v, want 1 shed + 2 completed", st)
	}
}

func TestSchedulerDropsBlownDeadlines(t *testing.T) {
	gate := make(chan struct{})
	b := &stubBackend{targets: map[string]time.Duration{"m": 10 * time.Millisecond}, gate: gate}
	// Deadline = 5×10ms: generous enough that the first request is
	// always picked up in time, but the gated worker then holds it far
	// longer than 50ms, so the queued second request expires.
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
		_, err := classify(context.Background(), s, "m", []int{1})
		second <- err
	}()
	time.Sleep(120 * time.Millisecond) // let the queued request's 50ms deadline expire
	releaseGate()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; !errors.Is(err, ErrDeadline) {
		t.Fatalf("err %v, want ErrDeadline", err)
	}
	if st := s.Snapshot(); st.Models[0].DeadlineMiss != 1 {
		t.Fatalf("snapshot %+v, want 1 deadline miss", st)
	}
}

func TestSchedulerExpiredAtAdmission(t *testing.T) {
	s := New(&stubBackend{targets: twoModels()}, Options{})
	defer s.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := classify(ctx, s, "sentiment", []int{1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err %v, want ErrDeadline", err)
	}
}

func TestSchedulerCloseDrainsAndRejects(t *testing.T) {
	b := &stubBackend{targets: twoModels(), delay: time.Millisecond}
	s := New(b, Options{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			classify(context.Background(), s, "sentiment", []int{1})
		}()
	}
	wg.Wait()
	s.Close()
	if _, err := classify(context.Background(), s, "sentiment", []int{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestSchedulerStress drives N goroutines × M models through the
// scheduler; run under -race this is the concurrency audit of the
// admission path, worker pools and stats. The GOMAXPROCS=1 case runs
// four workers on one gather seat, so the deferred Close must also
// release every worker parked waiting for the seat.
func TestSchedulerStress(t *testing.T) {
	for _, tc := range []struct{ procs, workers int }{{runtime.GOMAXPROCS(0), 2}, {1, 4}} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d/workers=%d", tc.procs, tc.workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			schedulerStress(t, tc.workers)
		})
	}
}

func schedulerStress(t *testing.T, workers int) {
	b := &stubBackend{targets: twoModels()}
	s := New(b, Options{QueueDepth: 4, Workers: workers, Slack: 1000})
	defer s.Close()

	const clients = 16
	models := []string{"sentiment", "nextword"}
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, err := classify(context.Background(), s, models[(c+i)%len(models)], []int{1, 2})
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrQueueFull):
					shed.Add(1)
				default:
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("nothing served under load")
	}
	st := s.Snapshot()
	if got := int64(st.Completed); got != served.Load() {
		t.Fatalf("snapshot completed %d, clients saw %d", got, served.Load())
	}
	if got := int64(st.Shed); got != shed.Load() {
		t.Fatalf("snapshot shed %d, clients saw %d", got, shed.Load())
	}
	if len(st.Models) != 2 {
		t.Fatalf("models %+v, want both", st.Models)
	}
}

// TestPercentile pins the nearest-rank definition (index ceil(p·n)−1):
// the regression cases are the small windows where the old int(p·n)
// indexing read one element too high — p50 of [1,2] must be 1, not 2.
func TestPercentile(t *testing.T) {
	seq := func(n int) []time.Duration {
		var lat []time.Duration
		for i := 1; i <= n; i++ {
			lat = append(lat, time.Duration(i))
		}
		return lat
	}
	for _, tc := range []struct {
		name   string
		sorted []time.Duration
		p      float64
		want   time.Duration
	}{
		{"empty", nil, 0.50, 0},
		{"single p50", seq(1), 0.50, 1},
		{"single p100", seq(1), 1.00, 1},
		{"two p50", seq(2), 0.50, 1}, // the motivating bug: was index 1
		{"two p95", seq(2), 0.95, 2},
		{"two p100", seq(2), 1.00, 2},
		{"three p50", seq(3), 0.50, 2},
		{"four p25", seq(4), 0.25, 1},
		{"hundred p50", seq(100), 0.50, 50},
		{"hundred p95", seq(100), 0.95, 95},
		{"hundred p100", seq(100), 1.00, 100},
		{"p0 clamps low", seq(5), 0.0, 1},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile(%d values, %v) = %d, want %d", tc.name, len(tc.sorted), tc.p, got, tc.want)
		}
	}
}

func TestLatencyWindowWraps(t *testing.T) {
	m := newModelStats("m", 4, nil)
	for i := 1; i <= 10; i++ {
		m.completed(time.Duration(i) * time.Millisecond)
	}
	ms := m.snapshot()
	if ms.Completed != 10 {
		t.Fatalf("completed %d", ms.Completed)
	}
	// Window holds only the last 4 samples (7..10ms).
	if ms.P50 < 7*time.Millisecond || ms.Max != 10*time.Millisecond {
		t.Fatalf("window stats %+v", ms)
	}
}
