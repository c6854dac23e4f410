package sti_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sti"
	"sti/internal/pipeline"
)

// prefixOf reports whether got is a (possibly complete) prefix of want.
func prefixOf(got, want []int) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestFleetGenerateStress hammers the continuous batcher through the
// full fleet path under -race: more concurrent admissions than two
// replicas' step loops admit at once (so streams queue for admission),
// mid-stream cancellations (which must free KV blocks and surface
// partial responses), and replica scale-downs draining while step
// loops run.
// Greedy decode is deterministic, so every response — complete or
// cancelled partial — must be a byte prefix of its single-stream
// reference: no lost and no invented tokens. Afterwards no KV bytes
// may remain charged anywhere.
func TestFleetGenerateStress(t *testing.T) {
	f := sti.NewFleet(256 << 10)
	if err := f.Add("m", fleetSystem(t, 7), 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas("m", 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}

	shapes := []sti.Request{
		{Task: sti.TaskGenerate, Tokens: []int{1, 9, 8}, MaxNewTokens: 7},
		{Task: sti.TaskGenerate, Tokens: []int{4, 2}, MaxNewTokens: 5},
		{Task: sti.TaskGenerate, Tokens: []int{11, 3, 5, 6}, MaxNewTokens: 6, Priority: -1},
		{Task: sti.TaskGenerate, Tokens: []int{30, 1}, MaxNewTokens: 9},
	}
	// Single-stream references, served before the storm: every replica
	// runs the same plan, so these are the ground truth for all of it.
	refs := make([][]int, len(shapes))
	for i, req := range shapes {
		resp, err := f.Serve(context.Background(), "m", req)
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		refs[i] = resp.GeneratedTokens
	}

	// Resizer: scale-downs drain replicas (and close their batchers)
	// while clients are mid-stream; scale-ups race admissions.
	stop := make(chan struct{})
	var resizerWG sync.WaitGroup
	resizerWG.Add(1)
	go func() {
		defer resizerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.SetReplicas("m", 1); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
			if err := f.SetReplicas("m", 2); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const workers = 2*pipeline.DefaultMaxStreams + 16
	const perWorker = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				i := (w + j) % len(shapes)
				req := shapes[i]
				ctx := context.Background()
				cancelled := false
				if j%3 == 2 {
					// Cancel from inside the stream after its first
					// token: the batcher must retire it with a partial
					// response within one step and free its KV.
					cctx, cancel := context.WithCancel(ctx)
					defer cancel()
					req.OnToken = func(step, token int) {
						if step == 0 {
							cancel()
						}
					}
					ctx, cancelled = cctx, true
				}
				resp, err := f.Serve(ctx, "m", req)
				switch {
				case err == nil:
					if resp == nil {
						t.Errorf("worker %d req %d: nil response", w, j)
						return
					}
					if len(resp.GeneratedTokens) != len(refs[i]) || !prefixOf(resp.GeneratedTokens, refs[i]) {
						t.Errorf("worker %d req %d: tokens %v, want %v", w, j, resp.GeneratedTokens, refs[i])
						return
					}
				case cancelled && errors.Is(err, context.Canceled):
					if resp == nil || !prefixOf(resp.GeneratedTokens, refs[i]) {
						t.Errorf("worker %d req %d: cancelled partial %+v not a prefix of %v", w, j, resp, refs[i])
						return
					}
				default:
					t.Errorf("worker %d req %d: %v", w, j, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	resizerWG.Wait()

	// Quiesce: no stream live anywhere, no KV byte still charged
	// against any engine grant, and the step loops actually batched.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gs, ok := f.GenerateStats("m")
		if !ok {
			t.Fatal("no generate stats")
		}
		if gs.Streams == 0 && gs.Pending == 0 && gs.KVBytes == 0 {
			if gs.Steps == 0 || gs.TokensOut == 0 {
				t.Fatalf("step loops never ran: %+v", gs)
			}
			if gs.PeakStreams < pipeline.DefaultMaxStreams {
				t.Fatalf("no step loop filled to its %d-stream cap: %+v", pipeline.DefaultMaxStreams, gs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("streams or KV bytes did not quiesce: %+v", gs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ps, ok := f.ReplicaStats("m")
	if !ok {
		t.Fatal("no replica stats")
	}
	if ps.KVBytes != 0 {
		t.Fatalf("replica pool still charges %d KV bytes after drain", ps.KVBytes)
	}
}
