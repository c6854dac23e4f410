package sti

import (
	"testing"
	"time"
)

// TestStopPredictionDetachesAccessTaps: EnablePrediction installs the
// shard-access taps on every pool engine (including replicas spawned
// while prediction runs), and StopPrediction must detach every one of
// them — a stopped predictor's closure may not stay wired into engine
// IO paths, feeding observations (and retaining the predictor graph)
// forever.
func TestStopPredictionDetachesAccessTaps(t *testing.T) {
	dir := t.TempDir()
	w := NewRandomModel(TinyConfig(), 21)
	if _, err := Preprocess(dir, w, []int{2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	sys, err := Load(dir, Odroid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(64 << 10)
	if err := f.Add("m", sys, 200*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}

	engines := func() []int {
		f.mu.RLock()
		defer f.mu.RUnlock()
		attached := []int{}
		for i, eng := range f.entries["m"].pool.Engines() {
			if eng.HasAccessObserver() {
				attached = append(attached, i)
			}
		}
		return attached
	}
	count := func() int {
		f.mu.RLock()
		defer f.mu.RUnlock()
		return len(f.entries["m"].pool.Engines())
	}

	if got := engines(); len(got) != 0 {
		t.Fatalf("engines %v carry taps before EnablePrediction", got)
	}
	if err := f.EnablePrediction(PredictOptions{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if got, n := engines(), count(); len(got) != n || n == 0 {
		t.Fatalf("taps on %v of %d engines after EnablePrediction, want all", got, n)
	}
	// A replica spawned mid-prediction must come up tapped too — and be
	// detached with the rest.
	if err := f.SetReplicas("m", 2); err != nil {
		t.Fatal(err)
	}
	if got, n := engines(), count(); n != 2 || len(got) != n {
		t.Fatalf("taps on %v of %d engines after scale-up, want all of 2", got, n)
	}

	f.StopPrediction()
	if got := engines(); len(got) != 0 {
		t.Fatalf("engines %v still carry access taps after StopPrediction", got)
	}
	if _, ok := f.PredictStats("m"); ok {
		t.Fatal("PredictStats still reports after StopPrediction")
	}
	// Stop is idempotent and later stray observations are no-ops.
	f.StopPrediction()
	f.ObserveArrival("m", 200*time.Millisecond)
}
