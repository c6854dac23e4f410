package httpserve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"sti"
)

// TestStatusFor pins the HTTP status of every typed serving error,
// wrapped or bare: retryable refusals are 503, a generate the KV
// budget cannot hold is 507, and the caller's own context errors never
// read as server faults.
func TestStatusFor(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{sti.ErrQueueFull, http.StatusServiceUnavailable},
		{sti.ErrDeadline, http.StatusGatewayTimeout},
		{sti.ErrUnknownModel, http.StatusNotFound},
		{sti.ErrServerClosed, http.StatusServiceUnavailable},
		{sti.ErrBatcherClosed, http.StatusServiceUnavailable},
		{sti.ErrKVBudget, http.StatusInsufficientStorage},
		{fmt.Errorf("model %q: %w", "m", sti.ErrKVBudget), http.StatusInsufficientStorage},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, statusClientClosedRequest},
		{errors.New("boom"), http.StatusInternalServerError},
	} {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
