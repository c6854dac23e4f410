package obs

import (
	"context"
	"encoding/hex"
	"strings"
	"sync/atomic"
	"time"
)

// Span taxonomy names. Each layer of the serving stack records spans
// under a fixed name; details (tier, origin, bucket) ride the Detail
// field. Static strings keep the record path allocation-free.
const (
	SpanRequest     = "request"          // root: the whole request on this process
	SpanQueueWait   = "queue.wait"       // serve: enqueue -> worker pickup
	SpanAssemble    = "batch.assemble"   // serve: batch accumulation window
	SpanExecute     = "execute"          // fleet dispatch -> backend completion
	SpanMaterialize = "materialize"      // pipeline: submodel shard stream + decode
	SpanMatWait     = "materialize.wait" // contbatch: parked on another stream's materialize
	SpanKVReserve   = "kv.reserve"       // contbatch: paged KV grant acquisition
	SpanKVPreempt   = "kv.preempt"       // contbatch: best-effort preemption to free KV
	SpanDecodeStep  = "decode.steps"     // contbatch: decode steps, log-bucketed by step index
	SpanShardIO     = "shard.io"         // store: one shard payload read; Detail = origin
	SpanSSE         = "sse.delivery"     // server: token stream delivery window
	SpanForward     = "route.forward"    // router: proxy hop; Detail = node name
)

// Shard IO origins recorded as SpanShardIO details and counted by the
// shard-read metrics.
const (
	OriginFlash = "flash"
	OriginCache = "cache"
	OriginPeer  = "peer"
)

// slabSpans bounds the spans one trace can hold. Past the cap new
// spans are counted as dropped rather than allocated — the record
// path must stay allocation-free even for thousand-step generations
// (which bucket their steps instead of recording each one).
const slabSpans = 192

// SpanID indexes a span inside its trace's slab; -1 is the invalid
// span (returned by every method of a nil trace, accepted by every
// method as a no-op target).
type SpanID int32

// Span is one recorded interval. Start/End are unix nanoseconds so
// spans recorded on different cluster nodes merge on a common axis.
type Span struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Parent SpanID `json:"parent"` // -1 for the process-root span
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Trace accumulates one request's spans in a fixed slab. Slots are
// claimed by atomic increment, so any goroutine touching the request
// (scheduler worker, batcher loop, IO worker, SSE emitter) records
// without locks. The slab is allocated once per request and owned by
// the GC — a cancelled request's backend goroutines may still be
// recording after the handler finishes, so slabs are deliberately NOT
// pooled (reuse would splice one request's spans into another's
// trace). The record path itself never allocates.
type Trace struct {
	// ID is the 16-byte trace id (hex in traceparent headers).
	ID [16]byte
	// RemoteParent is the upstream span id from an inbound
	// traceparent header, or -1 when this trace is the root of its
	// request — the stitch point for cross-node merges.
	RemoteParent SpanID
	// Model is the model the request targeted (set by the layer that
	// resolves it; exemplar rings shard by it).
	Model string

	n       atomic.Int32
	dropped atomic.Uint32
	spans   [slabSpans]Span
}

// NewTrace allocates a trace, stamps its id, and opens the root
// SpanRequest span. id may be zero (a fresh id is minted from the
// clock and a per-process counter); remoteParent is the caller's span
// on the upstream process, or -1.
func NewTrace(id [16]byte, remoteParent SpanID) *Trace {
	t := &Trace{}
	if id == ([16]byte{}) {
		id = mintTraceID()
	}
	t.ID = id
	t.RemoteParent = remoteParent
	t.Begin(-1, SpanRequest, "")
	return t
}

var traceSeq atomic.Uint64

func mintTraceID() [16]byte {
	var id [16]byte
	now := uint64(time.Now().UnixNano())
	seq := traceSeq.Add(1)
	for i := 0; i < 8; i++ {
		id[i] = byte(now >> (8 * (7 - i)))
		id[8+i] = byte((seq * 0x9e3779b97f4a7c15) >> (8 * (7 - i)))
	}
	return id
}

// Begin opens a span under parent and returns its id. On a nil trace
// or a full slab it returns -1 (and counts the drop).
func (t *Trace) Begin(parent SpanID, name, detail string) SpanID {
	if t == nil {
		return -1
	}
	idx := t.n.Add(1) - 1
	if idx >= slabSpans {
		t.dropped.Add(1)
		return -1
	}
	s := &t.spans[idx]
	s.Name = name
	s.Detail = detail
	s.Parent = parent
	s.Start = time.Now().UnixNano()
	s.End = 0
	return SpanID(idx)
}

// EndSpan closes a span opened by Begin. No-op for id -1.
func (t *Trace) EndSpan(id SpanID) {
	if t == nil || id < 0 || int32(id) >= t.n.Load() {
		return
	}
	t.spans[id].End = time.Now().UnixNano()
}

// Interval records an already-measured [start, end] interval as a
// completed span — for phases whose bounds were measured before the
// trace reached them (queue wait) or aggregated (step buckets).
func (t *Trace) Interval(parent SpanID, name, detail string, start, end time.Time) SpanID {
	id := t.Begin(parent, name, detail)
	if id >= 0 {
		t.spans[id].Start = start.UnixNano()
		t.spans[id].End = end.UnixNano()
	}
	return id
}

// Root returns the id of the root request span.
func (t *Trace) Root() SpanID {
	if t == nil || t.n.Load() == 0 {
		return -1
	}
	return 0
}

// Dropped reports spans that did not fit the slab.
func (t *Trace) Dropped() uint32 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans copies out the recorded spans (open spans get End = now).
// The copy detaches from the pooled slab, so it survives Release.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	n := t.n.Load()
	if n > slabSpans {
		n = slabSpans
	}
	out := make([]Span, n)
	copy(out, t.spans[:n])
	now := time.Now().UnixNano()
	for i := range out {
		if out[i].End == 0 {
			out[i].End = now
		}
	}
	return out
}

// Release marks the end of the trace's owned lifetime. Traces are
// GC-owned (see the type comment on why they are not pooled), so this
// is a lifecycle marker, not a free: straggler goroutines of a
// cancelled request may record into the slab afterwards without
// corrupting any other request.
func (t *Trace) Release() {}

// AdoptIntervals copies already-completed spans — measured by a
// goroutine that had no request trace, e.g. a plan materialization
// shared by many waiting streams — into this trace, re-parented onto
// parent. Nested structure in the donor is flattened; only spans with
// both endpoints set are adopted.
func (t *Trace) AdoptIntervals(parent SpanID, spans []Span) {
	if t == nil {
		return
	}
	for _, s := range spans {
		if s.Name == SpanRequest || s.End == 0 || s.Start == 0 {
			continue
		}
		id := t.Begin(parent, s.Name, s.Detail)
		if id < 0 {
			return
		}
		t.spans[id].Start = s.Start
		t.spans[id].End = s.End
	}
}

// IDString renders the trace id as 32 lowercase hex characters.
func (t *Trace) IDString() string {
	if t == nil {
		return ""
	}
	return hex.EncodeToString(t.ID[:])
}

// ---- context carriage ----

type traceKey struct{}

// WithTrace attaches a trace to a context. Layers below read it with
// FromContext; a nil trace is fine (FromContext then returns nil and
// every span call no-ops).
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the request's trace, or nil when tracing is off
// for this request.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// ---- traceparent propagation ----

// TraceparentHeader is the header carrying trace context across the
// router -> node hop (W3C trace-context shaped: 00-<trace>-<span>-01).
const TraceparentHeader = "Traceparent"

// FormatTraceparent renders the header value for propagating span
// `parent` of trace t to a downstream process.
func FormatTraceparent(t *Trace, parent SpanID) string {
	if t == nil {
		return ""
	}
	var span [8]byte
	v := uint64(parent) + 1 // span ids are slab indexes; avoid all-zero
	for i := 0; i < 8; i++ {
		span[i] = byte(v >> (8 * (7 - i)))
	}
	return "00-" + hex.EncodeToString(t.ID[:]) + "-" + hex.EncodeToString(span[:]) + "-01"
}

// ParseTraceparent parses an inbound header value. ok is false — and
// the caller should mint a fresh root trace — for a missing, garbage
// or partial value; a bad header is never an error.
func ParseTraceparent(v string) (id [16]byte, parent SpanID, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return id, -1, false
	}
	idb, err := hex.DecodeString(parts[1])
	if err != nil {
		return id, -1, false
	}
	spb, err := hex.DecodeString(parts[2])
	if err != nil {
		return id, -1, false
	}
	copy(id[:], idb)
	if id == ([16]byte{}) {
		return id, -1, false // all-zero trace id is invalid per spec
	}
	var sv uint64
	for _, b := range spb {
		sv = sv<<8 | uint64(b)
	}
	if sv == 0 {
		return id, -1, false
	}
	return id, SpanID(sv - 1), true
}
