package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"sti/internal/obs"
	"sti/internal/pipeline"
)

// TestSnapshotRaceHammer storms one model's completion/tier/executed
// recorders from many goroutines while Snapshot runs concurrently —
// the percentile sort must run on a private copy outside the stats
// lock, and every instrument read must be race-free (CI runs this
// under -race). The storm's 640 completions wrap the latency window.
func TestSnapshotRaceHammer(t *testing.T) {
	b := &stubBackend{targets: map[string]time.Duration{"m": 50 * time.Millisecond}}
	s := New(b, Options{QueueDepth: 256, Workers: 4, Slack: 1000, Obs: obs.NewHub(4)})
	defer s.Close()

	const submitters = 8
	const perSubmitter = 80 // submitters × 80 > latencyWindow
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot storm: hammer the read path for the whole duration of
	// the completion storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Snapshot()
			for _, ms := range st.Models {
				if ms.P50 > ms.Max {
					t.Errorf("p50 %v above max %v", ms.P50, ms.Max)
					return
				}
			}
		}
	}()

	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				_, err := s.Submit(context.Background(), "m", pipeline.Request{
					Task: pipeline.TaskClassify, Tokens: []int{1, 2, 3},
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Let submitters finish first, then release the snapshot goroutine.
	deadline := time.After(30 * time.Second)
	for {
		st := s.Snapshot()
		if st.Completed+st.Failed+st.Shed+st.DeadlineMiss >= submitters*perSubmitter {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("storm never completed: %+v", st)
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	<-done

	st := s.Snapshot()
	if st.Completed != submitters*perSubmitter {
		t.Fatalf("completed %d, want %d", st.Completed, submitters*perSubmitter)
	}
	if len(st.Models) != 1 || st.Models[0].P50 <= 0 || st.Models[0].Max < st.Models[0].P95 {
		t.Fatalf("percentiles inconsistent: %+v", st.Models[0])
	}
}

// TestModelStatsConcurrentRecorders hammers every modelStats recorder
// against snapshot() directly (no scheduler), pinning the lock
// discipline of the raw instrument set.
func TestModelStatsConcurrentRecorders(t *testing.T) {
	m := newModelStats("m", 16, obs.NewRegistry())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.snapshot()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.completed(time.Duration(i) * time.Microsecond)
				m.queued(time.Duration(i))
				m.executed(2, 100)
				m.generated(3)
				m.servedTier(&pipeline.TierInfo{Target: 100 * time.Millisecond, CacheHit: i%2 == 0, Downgraded: i%3 == 0})
				m.shed()
				m.deadlineMiss()
				m.failed()
			}
		}(g)
	}
	go func() {
		// Recorders finish, then the snapshot loop stops.
		time.Sleep(50 * time.Millisecond)
	}()
	wgDone := make(chan struct{})
	go func() {
		defer close(wgDone)
		wg.Wait()
	}()
	// Stop the snapshot loop once recorders are done (detected by the
	// counters reaching their totals).
	deadline := time.After(30 * time.Second)
	for m.nCompleted.Value() < 2000 {
		select {
		case <-deadline:
			t.Fatal("recorders never finished")
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	<-wgDone

	ms := m.snapshot()
	if ms.Completed != 2000 || ms.Shed != 2000 || ms.Failed != 2000 {
		t.Fatalf("counters %+v", ms)
	}
	if ms.ServedByTier["100ms"] != 2000 {
		t.Fatalf("tier counts %v", ms.ServedByTier)
	}
}
