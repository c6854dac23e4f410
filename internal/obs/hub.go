package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Hub is one process's observability root: the metrics registry every
// subsystem registers into and the per-model exemplar rings behind
// /v1/debug/trace. A nil *Hub is valid everywhere and disables the
// whole subsystem.
type Hub struct {
	Reg *Registry

	ringCap int
	mu      sync.Mutex
	rings   map[string]*Ring
}

// NewHub returns a hub with a fresh registry and rings of ringCap
// exemplars per model (<= 0 means the default 8).
func NewHub(ringCap int) *Hub {
	return &Hub{Reg: NewRegistry(), ringCap: ringCap, rings: make(map[string]*Ring)}
}

// Registry returns the hub's registry, or nil for a nil hub.
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.Reg
}

// Ring returns (creating on demand) the exemplar ring for a model.
func (h *Hub) Ring(model string) *Ring {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.rings[model]
	if !ok {
		r = NewRing(h.ringCap)
		h.rings[model] = r
	}
	return r
}

// Models lists the models with at least one retained exemplar.
func (h *Hub) Models() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	out := make([]string, 0, len(h.rings))
	for m, r := range h.rings {
		if r.Len() > 0 {
			out = append(out, m)
		}
	}
	h.mu.Unlock()
	sort.Strings(out)
	return out
}

// FindTrace looks a trace id up across every model's ring.
func (h *Hub) FindTrace(traceID string) (Exemplar, bool) {
	if h == nil {
		return Exemplar{}, false
	}
	h.mu.Lock()
	rings := make([]*Ring, 0, len(h.rings))
	for _, r := range h.rings {
		rings = append(rings, r)
	}
	h.mu.Unlock()
	for _, r := range rings {
		if ex, ok := r.Find(traceID); ok {
			return ex, true
		}
	}
	return Exemplar{}, false
}

// StartRequest begins a trace for an inbound request and attaches it
// to the context. traceparent is the raw inbound header value: a
// valid one continues the upstream trace (the remote span becomes the
// stitch parent), anything else — empty included — mints a fresh
// root; a garbage header is never an error. Returns (ctx, nil) for a
// nil hub.
func (h *Hub) StartRequest(ctx context.Context, traceparent string) (context.Context, *Trace) {
	if h == nil {
		return ctx, nil
	}
	id, parent, ok := ParseTraceparent(traceparent)
	if !ok {
		id, parent = [16]byte{}, -1
	}
	t := NewTrace(id, parent)
	return WithTrace(ctx, t), t
}

// FinishRequest closes a trace, offers it to the model's exemplar
// ring, and returns the slab to the pool. node names the cluster
// member that served it (router side; "" elsewhere). Safe on a nil
// trace.
func (h *Hub) FinishRequest(t *Trace, model, node, errStr string) {
	if t == nil {
		return
	}
	t.EndSpan(t.Root())
	if model == "" {
		model = t.Model
	}
	if model == "" {
		model = "unknown"
	}
	start := time.Unix(0, t.spans[0].Start)
	dur := time.Duration(t.spans[0].End - t.spans[0].Start)
	h.Ring(model).Offer(dur, errStr != "", func() Exemplar {
		return Exemplar{
			TraceID:      t.IDString(),
			Model:        model,
			Node:         node,
			Err:          errStr,
			Start:        start,
			Duration:     dur,
			RemoteParent: t.RemoteParent,
			Dropped:      t.Dropped(),
			Spans:        t.Spans(),
		}
	})
	t.Release()
}
