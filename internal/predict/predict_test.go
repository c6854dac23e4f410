package predict

import (
	"sync"
	"testing"
	"time"

	"sti/internal/planner"
)

// fakeActuator records every actuation, synchronized for -race.
type fakeActuator struct {
	mu       sync.Mutex
	plans    []TierPlan
	prefetch []int // layers prefetched, in call order
	keep     bool  // PrefetchShard's kept result
	warms    int
}

func (a *fakeActuator) TierPlans(string) []TierPlan {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.plans
}

func (a *fakeActuator) PrefetchShard(_ string, layer, _, _ int) (bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.prefetch = append(a.prefetch, layer)
	return a.keep, nil
}

func (a *fakeActuator) SpeculateWarm(string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.warms++
	return nil
}

func (a *fakeActuator) snapshot() (prefetch []int, warms int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int(nil), a.prefetch...), a.warms
}

// streamedPlan builds a plan whose every shard streams (none
// preloaded), so each is a prefetch candidate.
func streamedPlan(target time.Duration, layers int) TierPlan {
	p := &planner.Plan{Depth: layers, Width: 1, Target: target}
	for l := 0; l < layers; l++ {
		p.Slices = append(p.Slices, []int{0})
		p.Bits = append(p.Bits, []int{4})
		p.Preloaded = append(p.Preloaded, []bool{false})
	}
	return TierPlan{Target: target, Plan: p}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPredictorPrefetchesLearnedStride: a repeating access stride
// trains the sequence predictor, and the actuation loop issues
// prefetches for the predicted upcoming layers.
func TestPredictorPrefetchesLearnedStride(t *testing.T) {
	tier := 100 * time.Millisecond
	act := &fakeActuator{plans: []TierPlan{streamedPlan(tier, 4)}, keep: true}
	p := New(act, Options{Prefetch: true, Interval: 2 * time.Millisecond})
	defer p.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.ObserveAccess("m", tier, i%4)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	waitFor(t, "prefetches", func() bool {
		pf, _ := act.snapshot()
		return len(pf) >= 4
	})
	close(stop)
	<-done

	pf, _ := act.snapshot()
	for _, l := range pf {
		if l < 0 || l > 3 {
			t.Fatalf("prefetched layer %d outside the plan", l)
		}
	}
	st, ok := p.Stats("m")
	if !ok {
		t.Fatal("no stats for observed model")
	}
	if st.PrefetchIssued == 0 || st.Accesses == 0 {
		t.Fatalf("stats %+v: want accesses and issued prefetches", st)
	}
	if st.SeqPredictions > 0 && st.SeqHits == 0 {
		t.Fatalf("stats %+v: converged stride should land hits", st)
	}
}

// TestPredictorSpeculatesOnArrivalTrend: a burst of arrivals produces
// an upward trend, which triggers a speculative warm.
func TestPredictorSpeculatesOnArrivalTrend(t *testing.T) {
	act := &fakeActuator{}
	p := New(act, Options{
		Speculate: true,
		Interval:  2 * time.Millisecond,
		WarmTrend: 0.1,
	})
	defer p.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.ObserveArrival("m", 100*time.Millisecond)
			time.Sleep(500 * time.Microsecond)
		}
	}()
	waitFor(t, "speculative warm", func() bool {
		_, warms := act.snapshot()
		return warms >= 1
	})
	close(stop)
	<-done

	st, _ := p.Stats("m")
	if st.ArrivalRate <= 0 || st.SpeculativeWarms == 0 {
		t.Fatalf("stats %+v: want positive rate and warms", st)
	}

	// No prefetching was enabled: the prefetcher must not have run.
	pf, _ := act.snapshot()
	if len(pf) != 0 {
		t.Fatalf("prefetcher ran %d times with Prefetch disabled", len(pf))
	}
}

// TestPredictorObserveNeverBlocks: with the loop stopped and the queue
// full, Observe calls drop instead of blocking the serving path.
func TestPredictorObserveNeverBlocks(t *testing.T) {
	act := &fakeActuator{}
	p := New(act, Options{QueueLen: 4, Interval: time.Hour})
	p.Close() // loop gone; nothing drains the queue

	for i := 0; i < 100; i++ {
		p.ObserveAccess("m", time.Millisecond, i) // must not block
		p.ObserveArrival("m", time.Millisecond)
	}
	if p.Dropped() == 0 {
		t.Fatal("full queue did not count drops")
	}
}

// TestPredictorOptionsDefaults: zero options resolve to sane defaults
// and out-of-range values are clamped.
func TestPredictorOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Interval <= 0 || o.QueueLen <= 0 || o.Lookahead <= 0 || o.MinConfidence <= 0 {
		t.Fatalf("zero options did not default: %+v", o)
	}
	c := Options{Lookahead: 1000, MinConfidence: 100}.WithDefaults()
	if c.Lookahead > seqMaxLookahead || c.MinConfidence > seqMaxConf {
		t.Fatalf("out-of-range options not clamped: %+v", c)
	}
}
