package obshttp

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sti/internal/obs"
)

// TestObservabilityEndpoints pins what every mode's /metrics and
// /v1/debug/trace answer before any traffic, and without a hub.
func TestObservabilityEndpoints(t *testing.T) {
	get := func(h http.HandlerFunc, target string) (int, string, string) {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()
	}
	hub := obs.NewHub(4)
	hub.Registry().NewCounter("sti_test_total", "A test counter.", nil).Inc()
	for _, tc := range []struct {
		name    string
		h       http.HandlerFunc
		target  string
		status  int
		ctype   string
		contain string
	}{
		{"metrics", Metrics(hub), "/metrics", http.StatusOK, "text/plain", "sti_test_total 1"},
		{"no exemplars", Traces(hub, nil), "/v1/debug/trace", http.StatusOK, "text/plain", "(no exemplars retained)"},
		{"no exemplars as JSON", Traces(hub, nil), "/v1/debug/trace?format=json", http.StatusOK, "application/json", "[]"},
		{"unknown trace", Traces(hub, nil), "/v1/debug/trace?trace=abc", http.StatusNotFound, "application/json", `"error"`},
		{"metrics without a hub", Metrics(nil), "/metrics", http.StatusNotFound, "application/json", "observability disabled"},
		{"traces without a hub", Traces(nil, nil), "/v1/debug/trace", http.StatusNotFound, "application/json", "observability disabled"},
	} {
		status, ctype, body := get(tc.h, tc.target)
		if status != tc.status || !strings.HasPrefix(ctype, tc.ctype) || !strings.Contains(body, tc.contain) {
			t.Errorf("%s: %d %q %q, want %d %s containing %q", tc.name, status, ctype, body, tc.status, tc.ctype, tc.contain)
		}
	}
}
