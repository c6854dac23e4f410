// Package obshttp is the HTTP surface every sti-serve process shares,
// whatever its mode: the /metrics and /v1/debug/trace handlers over an
// obs.Hub, the JSON reply and error shape, and the one bound on POST
// bodies. It lives apart from obs, which every serving layer and the
// bench/ binary link: obs importing net/http or encoding/json would
// move obs behind them in the linker's package order and shift the
// code of bench/, its host-speed probe included.
package obshttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"sti/internal/obs"
)

// MaxBodyBytes bounds every POST body a standalone server, a cluster
// node or a cluster router reads, so a body the node would refuse
// never crosses the router, and one huge body cannot outrun the input
// limits checked after decoding: 64 inputs of 128 five-digit token ids
// with masks (BERT-base's maxSeq and vocabulary) take about 100 KB.
const MaxBodyBytes = 1 << 20

// DecodeBody decodes r's JSON body into v, streaming it under
// MaxBodyBytes. On failure it has already answered (see bodyError)
// and reports false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v); err != nil {
		bodyError(w, err)
		return false
	}
	return true
}

// ReadBody reads r's whole body under MaxBodyBytes, for a handler that
// must keep the bytes (the router resends them on a retry). On failure
// it has already answered (see bodyError) and reports false.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		bodyError(w, err)
		return nil, false
	}
	return body, true
}

// bodyError answers a body that could not be read or decoded: 413 past
// MaxBodyBytes, 400 for anything else (malformed JSON, a client that
// hung up mid-body).
func bodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, status, fmt.Errorf("decoding request: %w", err))
}

// WriteError answers with status and the JSON error shape
// {"error": "..."}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}

// WriteJSON answers with status and v encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck — nothing to do about a gone client
}

// noHub answers an observability endpoint of a process built without
// a hub.
func noHub(w http.ResponseWriter) {
	WriteError(w, http.StatusNotFound, errors.New("observability disabled"))
}

// Metrics serves GET /metrics: the hub's registry in Prometheus text
// exposition.
func Metrics(h *obs.Hub) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if h == nil {
			noHub(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		h.Registry().WritePrometheus(w)
	}
}

// ganttWidth is the column budget of rendered debug timelines.
const ganttWidth = 100

// Traces serves GET /v1/debug/trace. Without ?trace= it lists every
// exemplar the hub retains (the N slowest plus all erroring request
// timelines per model); with ?trace=<id> it answers the one exemplar
// find returns, or 404. A nil find looks the id up in the hub's own
// rings; a cluster router passes a lookup that stitches the serving
// node's half onto its own. ?format=json answers with the exemplar
// object (or list) — the shape a router stitches from — and anything
// else with ASCII Gantt charts.
func Traces(h *obs.Hub, find func(ctx context.Context, id string) (obs.Exemplar, bool)) http.HandlerFunc {
	if find == nil {
		find = func(_ context.Context, id string) (obs.Exemplar, bool) { return h.FindTrace(id) }
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if h == nil {
			noHub(w)
			return
		}
		asJSON := r.URL.Query().Get("format") == "json"
		if id := r.URL.Query().Get("trace"); id != "" {
			ex, ok := find(r.Context(), id)
			switch {
			case !ok:
				WriteError(w, http.StatusNotFound, fmt.Errorf("trace %q not retained", id))
			case asJSON:
				WriteJSON(w, http.StatusOK, ex)
			default:
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				io.WriteString(w, ex.Gantt(ganttWidth)) //nolint:errcheck — nothing to do about a gone client
			}
			return
		}
		exs := []obs.Exemplar{} // "[]", not "null", when none is retained
		for _, m := range h.Models() {
			exs = append(exs, h.Ring(m).Snapshot()...)
		}
		if asJSON {
			WriteJSON(w, http.StatusOK, exs)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(exs) == 0 {
			fmt.Fprintln(w, "(no exemplars retained)")
			return
		}
		for _, ex := range exs {
			io.WriteString(w, ex.Gantt(ganttWidth)) //nolint:errcheck — nothing to do about a gone client
			fmt.Fprintln(w)
		}
	}
}
