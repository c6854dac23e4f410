package pipeline

import (
	"testing"
	"time"

	"sti/internal/planner"
)

func TestRequestValidateTargetLatency(t *testing.T) {
	bad := Request{Task: TaskClassify, Tokens: []int{1}, TargetLatency: -time.Millisecond}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative TargetLatency must be rejected")
	}
	ok := Request{Task: TaskClassify, Tokens: []int{1}, TargetLatency: 150 * time.Millisecond}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmSetUnionRespectsBudget warms a two-tier ladder from one
// shared budget: the buffer must hold preloads usable by both tiers,
// never exceed the byte budget, and keep serving cache hits to an
// execution of either tier's plan.
func TestWarmSetUnionRespectsBudget(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 96<<10)
	tight, _ := tinyPlan(t, st, 100*time.Millisecond, 96<<10)
	relaxed, _ := tinyPlan(t, st, 400*time.Millisecond, 96<<10)

	if err := eng.WarmSet([]*planner.Plan{tight, relaxed}); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheBytes(); got == 0 || got > eng.Budget() {
		t.Fatalf("warm set holds %d bytes of %d budget", got, eng.Budget())
	}

	// Both tiers execute against the shared buffer; the bottom-up fill
	// means at least the tight tier's bottom-layer preloads hit.
	for _, p := range []*planner.Plan{tight, relaxed} {
		if _, err := eng.Run(ctxbg, p, Request{Tokens: []int{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.CacheBytes(); got > eng.Budget() {
		t.Fatalf("buffer grew past budget after executions: %d > %d", got, eng.Budget())
	}

	// A nil entry in the set is ignored (an unplanned tier slot).
	if err := eng.WarmSet([]*planner.Plan{nil, tight}); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheBytes(); got > eng.Budget() {
		t.Fatalf("re-warm overfilled: %d > %d", got, eng.Budget())
	}
}
