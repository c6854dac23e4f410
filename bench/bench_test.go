package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"sti"
	"sti/internal/serve"
)

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {35, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestSupportedPercentile(c.n); got != c.want {
			t.Errorf("highestSupportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(v, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The acceptance procedure computes spreads with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.values)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Start: at(0), End: at(100)},
		{ID: 1, Parent: 0, Start: at(10), End: at(40)},  // 30 covered
		{ID: 2, Parent: 0, Start: at(30), End: at(60)},  // overlaps 1: 20 more
		{ID: 3, Parent: 0, Start: at(90), End: at(120)}, // clipped to the parent: 10
		{ID: 4, Parent: 1, Start: at(10), End: at(15)},  // grandchild: only span 1 pays
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{0: at(40), 1: at(25), 2: at(30), 3: at(30), 4: at(5)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestHostSlowness(t *testing.T) {
	t0 := time.Now()
	m := &hostMeter{}
	for i, took := range []time.Duration{probeReference, 2 * probeReference, 3 * probeReference, 10 * probeReference} {
		m.at = append(m.at, t0.Add(time.Duration(i)*time.Second))
		m.took = append(m.took, took)
	}
	if got, n := m.slowness(t0, t0.Add(2*time.Second)); got != 2 || n != 3 {
		t.Errorf("slowness over the first three probes = %v from %d, want 2 from 3", got, n)
	}
	if got, n := m.slowness(t0.Add(time.Hour), t0.Add(2*time.Hour)); got != 1 || n != 0 {
		t.Errorf("slowness with no probes = %v from %d, want 1 from 0", got, n)
	}

	// The running meter probes, and the probe is the same work every time.
	live := startHostMeter()
	time.Sleep(10 * probeEvery)
	live.close()
	if got, n := live.slowness(t0, time.Now()); n == 0 || got <= 0 {
		t.Errorf("a live meter read slowness %v from %d probes", got, n)
	}
	a, b := make([]float32, probeRows*probeDim), make([]float32, probeDim*probeDim)
	for i := range a {
		a[i] = float32(i % 3)
	}
	for i := range b {
		b[i] = float32(i % 5)
	}
	x, y := make([]float32, len(a)), make([]float32, len(a))
	probe(x, a, b)
	probe(y, a, b)
	probe(y, a, b)
	if !reflect.DeepEqual(x, y) || x[len(x)-1] == 0 {
		t.Error("the probe's result depends on how often it ran")
	}
}

// sequence returns the first n requests of client c.
func sequence(w *workload, seed int64, c, n int) []request {
	next := clientGen(w, seed, c)
	out := make([]request, n)
	for i := range out {
		out[i] = next(i)
	}
	return out
}

func TestInputsAndScheduleAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if !reflect.DeepEqual(makePools(w, 7), makePools(w, 7)) {
			t.Errorf("%s: pools differ for one seed", w.Name)
		}
		if reflect.DeepEqual(makePools(w, 7), makePools(w, 8)) {
			t.Errorf("%s: pools equal for two seeds", w.Name)
		}
		for c := 0; c < w.conns(); c++ {
			if !reflect.DeepEqual(sequence(w, 7, c, 200), sequence(w, 7, c, 200)) {
				t.Errorf("%s: client %d's sequence differs for one seed", w.Name, c)
			}
		}
		if reflect.DeepEqual(sequence(w, 7, 0, 200), sequence(w, 8, 0, 200)) {
			t.Errorf("%s: sequences equal for two seeds", w.Name)
		}
		if w.Rate > 0 {
			a, open := schedule(w, 7, 20*time.Second)
			b, _ := schedule(w, 7, 20*time.Second)
			other, _ := schedule(w, 8, 20*time.Second)
			if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, other) {
				t.Errorf("%s: the schedule is not a function of the seed", w.Name)
			}
			if len(a) != w.Warmup+int(w.Rate*20) || a[w.Warmup] < open || a[len(a)-1] >= open+20*time.Second {
				t.Errorf("%s: want %d warm-up arrivals before %v and %d inside the window after it", w.Name, w.Warmup, open, int(w.Rate*20))
			}
		}
		p := makePools(w, 7)
		for _, in := range p.classify {
			if len(in) < w.ClassifyLen[0] || len(in) > w.ClassifyLen[1] {
				t.Errorf("%s: classify input of %d tokens outside %v", w.Name, len(in), w.ClassifyLen)
			}
		}
		// A workload that changes the budget is checked against the budget
		// in force, which is only known with a single client.
		if len(w.Budgets) > 1 && w.conns() != 1 {
			t.Errorf("%s: changes the budget with %d clients", w.Name, w.conns())
		}
	}
}

// BENCHMARK.json and the names the program emits must be the same lists.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	compare := func(kind string, got []boundedMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q of %s is outside the allowed alphabet", kind, m.Unit, m.Name)
			}
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, m, want[i])
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v of %s outside (0, 0.25]", kind, m.Bound, m.Name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
}

// smallGeometry keeps the bench vocabulary and sequence length, so the
// workloads' inputs fit, on a model that preprocesses in milliseconds.
var smallGeometry = sti.ModelConfig{Layers: 2, Heads: 2, Hidden: 32, FFN: 64, Vocab: geometry.Vocab, MaxSeq: geometry.MaxSeq, Classes: 2}

// The gate must pass what the scheduler seam really serves — batched,
// tiered, under budget changes — and fire on a single changed value.
func TestCorrectnessGate(t *testing.T) {
	dir := t.TempDir()
	storeDir := func(m modelSpec) string { return dir + "/" + m.Name }
	for _, w := range []*workload{findWorkload("classify_burst"), findWorkload("cold_tier_churn")} {
		for _, m := range w.Models {
			if _, err := os.Stat(storeDir(m)); err == nil {
				continue
			}
			if _, err := sti.Preprocess(storeDir(m), sti.NewRandomModel(smallGeometry, m.Seed), nil); err != nil {
				t.Fatal(err)
			}
		}
		p := makePools(w, 3)
		fleet, err := newFleet(w, variant{w.Budgets[0], w.Replicas}, storeDir, w.sharedCache())
		if err != nil {
			t.Fatal(err)
		}
		tf := &tracedFleet{Fleet: fleet, rec: newRecorder(), roots: make(map[*int]submitRoot)}
		sched := serve.New(tf, serve.Options{Workers: 2 * w.Replicas, Slack: 1000, MaxBatch: 8})
		d := &seamDoer{fleet: tf, sched: sched, pools: p}
		var samples []*sample
		for i, req := range sequence(w, 3, 0, 60) {
			s := &sample{Req: req, Index: i, Window: true}
			d.do(context.Background(), s, time.Now())
			if s.Err != "" {
				t.Fatalf("%s request %d: %s", w.Name, i, s.Err)
			}
			samples = append(samples, s)
		}
		sched.Close()

		ref := newReference(w, p, storeDir)
		if wrong := ref.check(samples); len(wrong) != 0 {
			t.Fatalf("%s: the gate rejects correct responses: %v", w.Name, wrong)
		}
		if err := ref.gateFires(samples); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		// And on a response in the middle of a batch body.
		for _, s := range samples {
			if len(s.Results) > 1 {
				bad := *s
				bad.Results = append([]wireResult(nil), s.Results...)
				bad.Results[3].Class ^= 1
				if len(ref.check([]*sample{&bad})) != 1 {
					t.Errorf("%s: a flipped class inside a batch body went unnoticed", w.Name)
				}
				break
			}
		}
		if len(tf.dispatch) == 0 {
			t.Errorf("%s: the traced fleet recorded no dispatch", w.Name)
		}

		// On a host twice as slow, the same samples read as half the latency
		// and — in a closed loop, where the server sets the rate — twice the
		// throughput; an open loop's rate is its schedule's.
		load := &loadResult{Samples: samples, Start: samples[0].Sent, End: samples[len(samples)-1].Done}
		at1, at2 := summarize(w, load, ref, 1).Metrics, summarize(w, load, ref, 2).Metrics
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
		if !near(2*at2["latency_p50_ms"].Value, at1["latency_p50_ms"].Value) || !near(2*at2["ttft_p50_ms"].Value, at1["ttft_p50_ms"].Value) {
			t.Errorf("%s: latencies at slowness 2 are not half those at 1: %v, %v", w.Name, at2, at1)
		}
		wantRate := 2 * at1["req_per_s"].Value
		if w.Rate > 0 {
			wantRate = at1["req_per_s"].Value
		}
		if !near(at2["req_per_s"].Value, wantRate) {
			t.Errorf("%s: req_per_s at slowness 2 = %v, want %v", w.Name, at2["req_per_s"].Value, wantRate)
		}
		if at2["bytes_read_per_req"] != at1["bytes_read_per_req"] || at2["fidelity_mean"] != at1["fidelity_mean"] {
			t.Errorf("%s: a count moved with the host's speed", w.Name)
		}
	}
}

func TestCompareSets(t *testing.T) {
	b := &benchmarkFile{
		EndToEnd: []boundedMetric{
			{Name: "latency_p50_ms", Better: "lower", Bound: 0.10},
			{Name: "req_per_s", Better: "higher", Bound: 0.10},
		},
	}
	b.Workloads = []workloadEntry{{Name: "w"}}
	set := func(host string, latency, rps []float64) resultSet {
		var rs resultSet = make(resultSet)
		for i := range latency {
			r := &result{}
			r.Metrics = map[string]metricValue{"latency_p50_ms": {latency[i], "ms"}, "req_per_s": {rps[i], "1/s"}}
			r.Provenance.Workload = "w"
			r.Provenance.Host = hostFacts{CPUModel: host, GitCommit: string(rune('a' + i))}
			rs["w"] = append(rs["w"], r)
		}
		return rs
	}
	steady := []float64{100, 101, 99, 100, 100}
	verdictOf := func(rows []compareRow, metric string) string {
		for _, r := range rows {
			if r.Metric == metric {
				return r.Verdict
			}
		}
		return "missing"
	}
	rows := compareSets(b, set("x", steady, steady), set("x", []float64{108, 109, 107, 108, 108}, []float64{85, 86, 85, 84, 85}))
	if got := verdictOf(rows, "latency_p50_ms"); got != rowOK {
		t.Errorf("8%% slower under a 10%% bound: %s", got)
	}
	if got := verdictOf(rows, "req_per_s"); got != rowRegression {
		t.Errorf("15%% less throughput under a 10%% bound: %s", got)
	}
	noisy := []float64{80, 95, 100, 110, 125}
	rows = compareSets(b, set("x", noisy, steady), set("x", []float64{150, 150, 150, 150, 150}, steady))
	if got := verdictOf(rows, "latency_p50_ms"); got != rowUnresolved {
		t.Errorf("spread wider than the bound: %s", got)
	}
	rows = compareSets(b, set("x", steady, steady), set("y", steady, steady))
	if got := verdictOf(rows, "latency_p50_ms"); got != rowRefused {
		t.Errorf("different hosts: %s", got)
	}
}
