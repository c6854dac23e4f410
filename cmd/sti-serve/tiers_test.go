package main

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestServerTargetMSSelectsTier drives per-request SLOs through the
// wire: a tight target_ms rides a tighter (coarser) plan tier than a
// relaxed one against the same model, each response reports the tier
// that served it, and /v1/stats exposes plan-cache counters and
// per-tier served counts.
func TestServerTargetMSSelectsTier(t *testing.T) {
	ts := startFleet(t, "-slack", "1000")

	post := func(targetMS float64) inferResponse {
		t.Helper()
		status, data := postJSON(t, ts.url+"/v2/infer", map[string]any{
			"model": "sentiment", "task": "classify",
			"text": "wonderful gripping story", "target_ms": targetMS,
		})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
		var ir inferResponse
		if err := json.Unmarshal(data, &ir); err != nil {
			t.Fatal(err)
		}
		return ir
	}

	tight := post(100)   // the ladder's 0.5× tier (default target 200ms)
	relaxed := post(400) // the 2× tier
	if tight.TierMS != 100 || relaxed.TierMS != 400 {
		t.Fatalf("tiers %v/%v ms, want 100/400", tight.TierMS, relaxed.TierMS)
	}
	// The tiny test model saturates above ~50ms, so fidelity may tie
	// across these tiers — it must never exceed the relaxed tier's.
	if tight.Fidelity <= 0 || tight.Fidelity > relaxed.Fidelity || relaxed.Fidelity > 1 {
		t.Fatalf("fidelity tight %v vs relaxed %v, want 0 < tight <= relaxed <= 1",
			tight.Fidelity, relaxed.Fidelity)
	}
	// The default: no target_ms rides the model's own target tier.
	def := post(0)
	if def.TierMS != 200 {
		t.Fatalf("default tier %v ms, want the model's 200ms target", def.TierMS)
	}

	// An off-ladder SLO is planned on demand and served.
	odd := post(50)
	if odd.TierMS != 50 {
		t.Fatalf("off-ladder tier %v ms, want 50", odd.TierMS)
	}

	// A negative SLO is a client error.
	if status, _ := postJSON(t, ts.url+"/v2/infer", map[string]any{
		"model": "sentiment", "text": "x", "target_ms": -1,
	}); status != http.StatusBadRequest {
		t.Fatalf("negative target_ms status %d, want 400", status)
	}

	// Stats expose the tier traffic: hits for the three ladder-served
	// requests, one miss for the on-demand tier, per-tier counts.
	st := statsOf(t, ts.url)
	if st.PlanCacheHits != 3 || st.PlanCacheMisses != 1 {
		t.Fatalf("plan cache %d hits / %d misses, want 3/1", st.PlanCacheHits, st.PlanCacheMisses)
	}
	for _, tier := range []string{"100ms", "200ms", "400ms", "50ms"} {
		if st.ServedByTier[tier] != 1 {
			t.Fatalf("served_by_tier %v, want one request per tier", st.ServedByTier)
		}
	}
}
