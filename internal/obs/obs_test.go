package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRegistryExpositionLints(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("sti_requests_total", "Requests admitted.", Labels{"model": "m"})
	c.Inc()
	c.AddN(2)
	g := r.NewGauge("sti_queue_depth", "Live queue depth.", Labels{"model": "m"})
	g.SetTo(4)
	g.AddDelta(-1)
	h := r.NewHistogram("sti_latency_ns", "Request latency.", Labels{"model": "m"})
	for _, v := range []int64{10, 100, 1000, 1000000} {
		h.Observe(v)
	}
	r.NewCounterFunc("sti_flash_reads_total", "Flash reads.", nil, func() float64 { return 7 })
	RegisterRuntimeMetrics(r)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`sti_requests_total{model="m"} 3`,
		`sti_queue_depth{model="m"} 3`,
		`sti_latency_ns_count{model="m"} 4`,
		"sti_flash_reads_total 7",
		"# TYPE sti_latency_ns histogram",
		"go_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition(buf.Bytes()); err != nil {
		t.Fatalf("self-exposition fails lint: %v\n%s", err, out)
	}
}

func TestRegistryReRegisterSharesInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "x", nil)
	b := r.NewCounter("x_total", "x", nil)
	if a != b {
		t.Fatal("re-registering the same counter returned a different instance")
	}
	ha := r.NewHistogram("h", "h", nil)
	hb := r.NewHistogram("h", "h", nil)
	if ha != hb {
		t.Fatal("re-registering the same histogram returned a different instance")
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":        "foo 1\n",
		"bad name":       "# TYPE 9bad counter\n9bad 1\n",
		"bad value":      "# TYPE foo counter\nfoo xyz\n",
		"dup series":     "# TYPE foo counter\nfoo 1\nfoo 2\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
		"missing inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n",
		"inf != count":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n",
		"unquoted label": "# TYPE foo counter\nfoo{a=b} 1\n",
		"unterminated":   "# TYPE foo counter\nfoo{a=\"b\" 1\n",
		"negative count": "# TYPE foo counter\nfoo -1\n",
		"duplicate TYPE": "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"unknown TYPE":   "# TYPE foo widget\nfoo 1\n",
	}
	for name, in := range cases {
		if err := LintExposition([]byte(in)); err == nil {
			t.Errorf("%s: lint accepted %q", name, in)
		}
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := newHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("sum = %d", h.Sum())
	}
	p50 := h.Quantile(0.5)
	if p50 < 400 || p50 > 700 {
		t.Fatalf("p50 = %d, want ≈500 within log-linear error", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900 || p99 > 1300 {
		t.Fatalf("p99 = %d, want ≈990 within log-linear error", p99)
	}
	// Bucket upper bounds must be monotone and consistent with the
	// index function at every boundary.
	for v := uint64(0); v < 1<<12; v++ {
		idx := bucketIndex(v)
		if up := bucketUpper(idx); v > up {
			t.Fatalf("value %d above its bucket upper %d (idx %d)", v, up, idx)
		}
		if idx > 0 {
			if lowUp := bucketUpper(idx - 1); v <= lowUp {
				t.Fatalf("value %d should be in bucket %d (upper %d)", v, idx-1, lowUp)
			}
		}
	}
}

func TestTraceSpansAndSlabBound(t *testing.T) {
	tr := NewTrace([16]byte{}, -1)
	root := tr.Root()
	if root != 0 {
		t.Fatalf("root = %d", root)
	}
	s := tr.Begin(root, SpanQueueWait, "")
	time.Sleep(time.Millisecond)
	tr.EndSpan(s)
	tr.Interval(root, SpanShardIO, OriginFlash, time.Now().Add(-time.Millisecond), time.Now())
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("span count = %d", len(spans))
	}
	if spans[1].Name != SpanQueueWait || spans[1].Parent != 0 || spans[1].End <= spans[1].Start {
		t.Fatalf("queue span %+v", spans[1])
	}
	if spans[2].Detail != OriginFlash {
		t.Fatalf("io span %+v", spans[2])
	}
	// Overflow: the slab drops, never grows.
	for i := 0; i < slabSpans+10; i++ {
		tr.Begin(root, SpanDecodeStep, "x")
	}
	if tr.Dropped() == 0 {
		t.Fatal("slab overflow not counted")
	}
	if got := len(tr.Spans()); got != slabSpans {
		t.Fatalf("slab grew to %d spans", got)
	}
	tr.Release()

	// Nil traces no-op everywhere.
	var nilT *Trace
	if id := nilT.Begin(0, "x", ""); id != -1 {
		t.Fatal("nil trace began a span")
	}
	nilT.EndSpan(0)
	nilT.Release()
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTrace([16]byte{}, -1)
	defer tr.Release()
	sp := tr.Begin(tr.Root(), SpanForward, "node-a")
	hdr := FormatTraceparent(tr, sp)
	id, parent, ok := ParseTraceparent(hdr)
	if !ok || id != tr.ID || parent != sp {
		t.Fatalf("round trip: ok=%v id=%x parent=%d (want %x/%d) from %q", ok, id, parent, tr.ID, sp, hdr)
	}
	for _, bad := range []string{
		"", "garbage", "00-zz-xx-01", "01-abcd-ef-00",
		"00-" + strings.Repeat("0", 32) + "-0000000000000001-01",  // all-zero trace id
		"00-" + strings.Repeat("ab", 16) + "-0000000000000000-01", // all-zero span id
		"00-" + strings.Repeat("ab", 15) + "-0000000000000001-01", // short trace id
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("accepted garbage traceparent %q", bad)
		}
	}
}

func TestRingKeepsSlowestAndErrors(t *testing.T) {
	r := NewRing(3)
	mk := func(id string, d time.Duration, err string) func() Exemplar {
		return func() Exemplar { return Exemplar{TraceID: id, Duration: d, Err: err} }
	}
	r.Offer(10*time.Millisecond, false, mk("a", 10*time.Millisecond, ""))
	r.Offer(20*time.Millisecond, false, mk("b", 20*time.Millisecond, ""))
	r.Offer(30*time.Millisecond, false, mk("c", 30*time.Millisecond, ""))
	// Faster than everything: rejected.
	if r.Offer(5*time.Millisecond, false, mk("d", 5*time.Millisecond, "")) {
		t.Fatal("ring admitted a fast boring request over slower ones")
	}
	// Slower: evicts the fastest.
	if !r.Offer(40*time.Millisecond, false, mk("e", 40*time.Millisecond, "")) {
		t.Fatal("ring rejected a slowest-yet request")
	}
	if _, ok := r.Find("a"); ok {
		t.Fatal("fastest entry survived eviction")
	}
	// Errors always displace non-errors.
	if !r.Offer(time.Millisecond, true, mk("err", time.Millisecond, "boom")) {
		t.Fatal("ring rejected an erroring request")
	}
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Duration < snap[1].Duration {
		t.Fatalf("snapshot %+v", snap)
	}
	found := false
	for _, ex := range snap {
		if ex.Err == "boom" {
			found = true
		}
	}
	if !found {
		t.Fatal("error exemplar missing from snapshot")
	}
}

func TestStepBucketsAggregate(t *testing.T) {
	tr := NewTrace([16]byte{}, -1)
	defer tr.Release()
	sb := NewStepBuckets(tr, tr.Root())
	base := time.Now()
	for step := 0; step < 20; step++ {
		s := base.Add(time.Duration(step) * time.Millisecond)
		sb.StepDone(step, s, s.Add(time.Millisecond))
	}
	sb.Flush()
	var buckets []string
	for _, s := range tr.Spans() {
		if s.Name == SpanDecodeStep {
			buckets = append(buckets, s.Detail)
		}
	}
	want := []string{"0", "1-3", "4-15", "16-63"}
	if len(buckets) != len(want) {
		t.Fatalf("buckets %v, want %v", buckets, want)
	}
	for i := range want {
		if buckets[i] != want[i] {
			t.Fatalf("buckets %v, want %v", buckets, want)
		}
	}
}

func TestHubLifecycleAndStitch(t *testing.T) {
	h := NewHub(4)
	ctx, tr := h.StartRequest(t.Context(), "")
	if tr == nil || FromContext(ctx) != tr {
		t.Fatal("trace not carried on context")
	}
	fwd := tr.Begin(tr.Root(), SpanForward, "node-a")
	hdr := FormatTraceparent(tr, fwd)

	// Downstream process continues the trace.
	h2 := NewHub(4)
	_, tr2 := h2.StartRequest(t.Context(), hdr)
	if tr2.ID != tr.ID || tr2.RemoteParent != fwd {
		t.Fatalf("downstream trace id=%x parent=%d", tr2.ID, tr2.RemoteParent)
	}
	q := tr2.Begin(tr2.Root(), SpanQueueWait, "")
	tr2.EndSpan(q)
	downSpans := tr2.Spans()
	remote := tr2.RemoteParent
	h2.FinishRequest(tr2, "m", "", "")

	tr.EndSpan(fwd)
	upSpans := tr.Spans()
	h.FinishRequest(tr, "m", "node-a", "")

	stitched := StitchSpans(upSpans, remote, downSpans)
	if len(stitched) != len(upSpans)+len(downSpans) {
		t.Fatalf("stitched %d spans", len(stitched))
	}
	// The downstream root now hangs off the upstream forward span.
	downRoot := stitched[len(upSpans)]
	if downRoot.Name != SpanRequest || downRoot.Parent != fwd {
		t.Fatalf("downstream root %+v, want parent %d", downRoot, fwd)
	}
	// And the downstream child kept its (offset) parentage.
	child := stitched[len(upSpans)+1]
	if child.Name != SpanQueueWait || child.Parent != SpanID(len(upSpans)) {
		t.Fatalf("downstream child %+v", child)
	}

	ex, ok := h.FindTrace(downRoot.Name /* wrong id */)
	if ok {
		t.Fatalf("found exemplar by non-id %+v", ex)
	}
	if got := h.Models(); len(got) != 1 || got[0] != "m" {
		t.Fatalf("models %v", got)
	}
	snap := h.Ring("m").Snapshot()
	if len(snap) != 1 || snap[0].Node != "node-a" {
		t.Fatalf("ring %+v", snap)
	}
	if _, ok := h.FindTrace(snap[0].TraceID); !ok {
		t.Fatal("FindTrace missed a retained exemplar")
	}
	if g := snap[0].Gantt(60); !strings.Contains(g, "route.forward") {
		t.Fatalf("gantt missing forward row:\n%s", g)
	}

	// A nil hub yields nil traces.
	var nilHub *Hub
	if _, tr4 := nilHub.StartRequest(t.Context(), ""); tr4 != nil {
		t.Fatal("nil hub minted a trace")
	}
	nilHub.FinishRequest(nil, "", "", "")
	if nilHub.Registry() != nil {
		t.Fatal("nil hub has a registry")
	}
}

func TestRecordPathsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c", nil)
	g := r.NewGauge("g", "g", nil)
	h := r.NewHistogram("h", "h", nil)
	tr := NewTrace([16]byte{}, -1)
	defer tr.Release()
	sb := NewStepBuckets(tr, tr.Root())
	now := time.Now()

	if n := testing.AllocsPerRun(200, func() { c.Inc(); c.AddN(3) }); n != 0 {
		t.Errorf("counter record allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { g.SetTo(1); g.AddDelta(-1) }); n != 0 {
		t.Errorf("gauge record allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("histogram record allocates %v/op", n)
	}
	step := 0
	if n := testing.AllocsPerRun(100, func() {
		id := tr.Begin(0, SpanShardIO, OriginCache)
		tr.EndSpan(id)
		sb.StepDone(step, now, now)
		step++
	}); n != 0 {
		t.Errorf("span record allocates %v/op", n)
	}
}
