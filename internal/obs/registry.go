// Package obs is the serving stack's observability substrate: a
// dependency-free metrics registry with Prometheus text exposition,
// per-request trace spans carried on the request context through every
// layer, and a bounded exemplar ring of the slowest/erroring request
// timelines per model.
//
// The record paths are built for the serving hot loops: counters and
// gauges are single atomic ops, histogram observation is one
// bits.Len64 plus two atomic adds, and span start/end write into a
// pooled fixed-capacity slab claimed by atomic index — no allocation,
// no lock. sti-vet's hotalloc pass covers these functions, and its
// locknoblock rule rejects any instrument recorded while Fleet.mu or
// a batcher's step lock is held.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; registry-created counters are exposed on /metrics.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// AddN adds n (n must be non-negative; negative deltas are ignored so
// the exposition stays monotone).
func (c *Counter) AddN(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// SetTo replaces the gauge value.
func (g *Gauge) SetTo(n int64) { g.v.Store(n) }

// AddDelta adjusts the gauge by n (may be negative).
func (g *Gauge) AddDelta(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// instrument ties a registered name + label set to its sample source.
type instrument struct {
	name    string // metric family name
	help    string
	kind    string // "counter" | "gauge" | "histogram"
	labels  string // rendered {k="v",...} or ""
	read    func() float64
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds registered instruments and renders them in
// Prometheus text exposition format. Registration takes a lock;
// recording on the returned instruments never does.
type Registry struct {
	mu    sync.Mutex
	inst  []*instrument
	index map[string]*instrument // name + labels -> existing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*instrument)}
}

// Labels is an ordered-at-render label set attached to an instrument
// at registration time.
type Labels map[string]string

func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(ls[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register adds the instrument unless its name+labels key already
// exists, in which case the existing registration wins and is
// returned — re-registration hands every caller the same backing
// instrument.
func (r *Registry) register(in *instrument) *instrument {
	key := in.name + in.labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.index[key]; ok {
		return got
	}
	r.inst = append(r.inst, in)
	r.index[key] = in
	return in
}

// NewCounter registers and returns a counter. Re-registering the same
// name+labels returns the existing counter.
func (r *Registry) NewCounter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	in := r.register(&instrument{name: name, help: help, kind: "counter", labels: renderLabels(labels), counter: c})
	if in.counter != nil {
		return in.counter
	}
	return c // name collided with a func-backed metric: unexposed but safe to record
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	in := r.register(&instrument{name: name, help: help, kind: "gauge", labels: renderLabels(labels), gauge: g})
	if in.gauge != nil {
		return in.gauge
	}
	return g
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time — the bridge for subsystems that already keep
// authoritative atomic counters (shard cache, replica pool, step loops)
// without double-counting.
func (r *Registry) NewCounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(&instrument{name: name, help: help, kind: "counter", labels: renderLabels(labels), read: fn})
}

// NewGaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(&instrument{name: name, help: help, kind: "gauge", labels: renderLabels(labels), read: fn})
}

// NewHistogram registers and returns a log-linear histogram.
func (r *Registry) NewHistogram(name, help string, labels Labels) *Histogram {
	h := newHistogram()
	in := r.register(&instrument{name: name, help: help, kind: "histogram", labels: renderLabels(labels), hist: h})
	if in.hist != nil {
		return in.hist
	}
	return h
}

// WritePrometheus renders every registered instrument in Prometheus
// text exposition format (families grouped, HELP/TYPE once per
// family, stable order).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	inst := make([]*instrument, len(r.inst))
	copy(inst, r.inst)
	r.mu.Unlock()
	sort.SliceStable(inst, func(i, j int) bool {
		if inst[i].name != inst[j].name {
			return inst[i].name < inst[j].name
		}
		return inst[i].labels < inst[j].labels
	})
	lastFamily := ""
	for _, in := range inst {
		if in.name != lastFamily {
			fmt.Fprintf(w, "# HELP %s %s\n", in.name, in.help)
			fmt.Fprintf(w, "# TYPE %s %s\n", in.name, in.kind)
			lastFamily = in.name
		}
		switch {
		case in.hist != nil:
			in.hist.write(w, in.name, in.labels)
		case in.counter != nil:
			fmt.Fprintf(w, "%s%s %s\n", in.name, in.labels, formatValue(float64(in.counter.Value())))
		case in.gauge != nil:
			fmt.Fprintf(w, "%s%s %s\n", in.name, in.labels, formatValue(float64(in.gauge.Value())))
		case in.read != nil:
			fmt.Fprintf(w, "%s%s %s\n", in.name, in.labels, formatValue(in.read()))
		}
	}
}

// formatValue renders a sample value the way Prometheus clients do:
// integers without a decimal point, everything else via %g.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
