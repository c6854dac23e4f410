package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"sti"
)

// The fixture: one geometry, fixed model seeds. The workload seed drives
// only inputs, tiers and the arrival schedule — the program under test
// sees the same weights on every run.
const geometryName = "bench-6x6"

var geometry = sti.ModelConfig{Layers: 6, Heads: 6, Hidden: 192, FFN: 768, Vocab: 2048, MaxSeq: 64, Classes: 2}

const (
	deviceName    = "odroid"
	defaultTarget = 100 * time.Millisecond // ladder 50/100/200 ms: three distinct submodels
	poolSize      = 64                     // inputs per workload, so references are computed once
	// slack is every workload's -slack: a request's server-side deadline is
	// slack x its target. A run in which any operation fails is void, so the
	// deadline is set where a stall on a shared host cannot reach it; how late
	// requests are is judged by slo_attainment against a fixed limit instead.
	slack       = 64
	setupSpawns = 15 // setup_s is the median of this many child spawns
)

// metric is one named number with its unit and direction, as listed in
// BENCHMARK.json (a schema test keeps the two in step).
type metric struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists what a user of the server sees. Every workload reports
// all of them, so each is defined for both tasks: tok_per_s counts every
// token through the model (inputs and generated), and ttft_p50_ms is the
// time to the first output — the first SSE token of a generate, the
// response itself for a classify. Timings are reported at the reference
// host speed (hostspeed.go). The token gap and the latency tail are
// reported with every result as diagnostics (and per layer), not here:
// they do not repeat within a bound on every workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"tok_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"ttft_p50_ms", "ms", "lower"},
	{"slo_attainment", "ratio", "higher"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"bytes_read_per_req", "B", "lower"},
	{"fidelity_mean", "ratio", "higher"},
}

// perLayer lists the traced run's numbers, layer.metric.
var perLayer = []metric{
	{"bench.sched_lag_p50_ms", "ms", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "higher"},
	{"bench.preprocess_s", "s", "lower"},
	{"bench.host_slowness", "ratio", "lower"},
	{"sti-serve.http_overhead_p50_ms", "ms", "lower"},
	{"sti-serve.itl_p50_ms", "ms", "lower"},
	{"sti-serve.sse_gap_p99_ms", "ms", "lower"},
	{"sti-serve.latency_p99_ms", "ms", "lower"},
	{"serve.queue_wait_p50_ms", "ms", "lower"},
	{"serve.submit_self_p50_us", "us", "lower"},
	{"serve.avg_batch", "count", "higher"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"serve.downgrade_ratio", "ratio", "lower"},
	{"fleet.dispatch_p50_us", "us", "lower"},
	{"fleet.plan_cache_hit_ratio", "ratio", "higher"},
	{"fleet.set_budget_ms", "ms", "lower"},
	{"fleet.replan_ms", "ms", "lower"},
	{"fleet.preload_bytes", "B", "lower"},
	{"replica.served_imbalance", "ratio", "lower"},
	{"planner.plan_p50_us", "us", "lower"},
	{"pipeline.exec_total_p50_ms", "ms", "lower"},
	{"pipeline.io_busy_ms", "ms", "lower"},
	{"pipeline.compute_busy_ms", "ms", "lower"},
	{"pipeline.stall_ratio", "ratio", "lower"},
	{"pipeline.exec_allocs_per_op", "count", "lower"},
	{"pipeline.exec_bytes_per_op", "B", "lower"},
	{"pipeline.warm_ms", "ms", "lower"},
	{"pipeline.materialize_ms", "ms", "lower"},
	{"pipeline.gen_streams_per_step", "count", "higher"},
	{"pipeline.gen_preempted", "count", "lower"},
	{"pipeline.gen_recomputed_tokens", "count", "lower"},
	{"store.read_p50_us", "us", "lower"},
	{"store.flash_reads_per_req", "count", "lower"},
	{"store.cache_hit_ratio", "ratio", "higher"},
	{"store.singleflight_hit_ratio", "ratio", "higher"},
	{"store.evictions", "count", "lower"},
	{"store.decode_p50_us", "us", "lower"},
	{"store.decode_allocs_per_op", "count", "lower"},
	{"quant.dequantize_mb_per_s", "MB/s", "higher"},
	{"bitpack.unpack_mb_per_s", "MB/s", "higher"},
	{"model.assemble_p50_us", "us", "lower"},
	{"model.forward_layer_p50_ms", "ms", "lower"},
	{"model.forward_allocs_per_op", "count", "lower"},
	{"model.forward_bytes_per_op", "B", "lower"},
	{"model.prefill_p50_ms", "ms", "lower"},
	{"model.decode_step_p50_us", "us", "lower"},
	{"model.decode_step_allocs_per_op", "count", "lower"},
	{"model.kv_bytes_peak", "B", "lower"},
	{"tensor.matmul_gflops", "GFLOP/s", "higher"},
	{"obs.gc_cycles_per_req", "count", "lower"},
	{"obs.metrics_scrape_ms", "ms", "lower"},
}

// modelSpec is one served model: a fixed weight seed and fleet weight.
type modelSpec struct {
	Name   string
	Seed   int64
	Weight float64
}

var (
	modelA = modelSpec{Name: "a", Seed: 1, Weight: 1}
	modelB = modelSpec{Name: "b", Seed: 2, Weight: 1}
)

type reqKind int

const (
	kindClassify reqKind = iota // one input, or several in one body
	kindGenerate
	kindBudget // POST /v1/budget: the write beside the reads
)

func (k reqKind) String() string {
	return [...]string{"classify", "generate", "budget"}[k]
}

// request is one generated operation. Inputs index the workload's pools,
// so a response is checked against a reference computed once per
// (model, tier, input).
type request struct {
	Kind     reqKind
	Model    string
	Inputs   []int   // classify: pool.classify indexes; generate: one pool.prompts index
	TargetMS float64 // 0 = the model's default tier
	Priority int
	MaxNew   int
	Budget   int64 // kindBudget: the new fleet-wide preload budget
}

// pools are a workload's inputs, made from the seed.
type pools struct {
	classify [][]int
	prompts  [][]int
}

// workload is one traffic mix with the server flags it is pinned to.
type workload struct {
	Name string
	Why  string

	Models   []modelSpec
	Budgets  []int64 // every fleet budget the run uses; Budgets[0] is the -budget flag
	Replicas int
	// SharedCache is sti-serve's -sharedcache; zero means its default, 1 MiB.
	SharedCache int64

	// Conns is the closed-loop client count (0 = min(nproc, 4)); Rate,
	// when set, makes the workload an open loop of Poisson arrivals at
	// that many requests per second, timed from each request's due time.
	Conns int
	Rate  float64
	// Warmup is how many requests per client (open loop: arrivals) run
	// before the window opens. A count, not a time, so the window starts
	// at the same point of the sequence on every run.
	Warmup int
	// LimitMS is the fixed latency limit slo_attainment is judged by.
	LimitMS float64

	ClassifyLen [2]int // token-count range of classify inputs
	PromptLen   int

	// gen returns client c's generator: called with i = 0, 1, 2, ... it
	// yields the client's request sequence.
	gen func(rng *rand.Rand, c int) func(i int) request
}

func (w *workload) conns() int {
	if w.Rate > 0 {
		return 1
	}
	if w.Conns > 0 {
		return w.Conns
	}
	return defaultConns()
}

// defaultConns is min(nproc, 4): 2 on the reference host.
func defaultConns() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// serverFlags are the child's arguments, less -addr and -pprof.
func (w *workload) serverFlags(storeDir func(modelSpec) string) []string {
	var flags []string
	for _, m := range w.Models {
		flags = append(flags, "-model", fmt.Sprintf("%s=%s,target=%s,weight=%g", m.Name, storeDir(m), defaultTarget, m.Weight))
	}
	return append(flags, "-device", deviceName,
		"-budget", fmt.Sprint(w.Budgets[0]),
		"-replicas", fmt.Sprint(w.Replicas),
		"-slack", fmt.Sprint(slack),
		"-sharedcache", fmt.Sprint(w.sharedCache()))
}

func (w *workload) sharedCache() int64 {
	if w.SharedCache > 0 {
		return w.SharedCache
	}
	return 1 << 20
}

var ladderMS = [3]float64{50, 100, 200}

// deck deals 0..n-1 in a fresh random order each cycle. Every seed then
// draws the same multiset — the same mix of inputs, tiers and priorities —
// in a different order, so runs differ by seed without differing in load.
type deck struct {
	rng   *rand.Rand
	n     int
	cards []int
}

func (d *deck) draw() int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

var workloads = []*workload{
	{
		Name:   "classify_steady",
		Why:    "closed loop, one model, whole plan cached: forward compute is ~80% of the work, so kernel and allocation gains show and IO/cache changes must not",
		Models: []modelSpec{modelA}, Budgets: []int64{2 << 20}, Replicas: 1,
		SharedCache: 16 << 20,
		Warmup:      20,
		LimitMS:     400, ClassifyLen: [2]int{32, 64}, PromptLen: 16,
		gen: func(rng *rand.Rand, c int) func(i int) request {
			input := &deck{rng: rng, n: poolSize}
			return func(i int) request {
				return request{Kind: kindClassify, Model: "a", Inputs: []int{input.draw()}}
			}
		},
	},
	{
		Name: "classify_burst",
		Why:  "open loop of 8-input bodies on mixed tiers with best-effort traffic: short inputs make IO+decompress half of a request, so batching, tier grouping, downgrade and the single-flight cache decide the outcome",
		// Rate must be a whole number of bodies per second and Warmup a
		// multiple of it (see schedule). 3/s keeps the child near 35% CPU:
		// at 5/s (55%) queueing turns the host's +-20% speed swings into
		// +-60% latency swings, and no bound survives that.
		Models: []modelSpec{modelA}, Budgets: []int64{256 << 10}, Replicas: 2,
		Rate: 3, Warmup: 6,
		LimitMS: 1000, ClassifyLen: [2]int{8, 16}, PromptLen: 8,
		gen: func(rng *rand.Rand, c int) func(i int) request {
			input, tier, priority := &deck{rng: rng, n: poolSize}, &deck{rng: rng, n: 3}, &deck{rng: rng, n: 4}
			return func(i int) request {
				r := request{Model: "a", TargetMS: ladderMS[tier.draw()]}
				if priority.draw() == 0 {
					r.Priority = -1 // one body in four is best-effort
				}
				for k := 0; k < 8; k++ {
					r.Inputs = append(r.Inputs, input.draw())
				}
				return r
			}
		},
	},
	{
		Name: "generate_stream",
		Why:  "closed loop of SSE streams: after one materialisation no shard is read, so the batcher step loop, paged KV and SSE delivery do all the work and store/quant changes must not move it",
		// KV pages are charged to the preload grant: 4 MiB holds four
		// 48-position streams beside the preload set.
		Models: []modelSpec{modelA}, Budgets: []int64{4 << 20}, Replicas: 1,
		Warmup:  6,
		LimitMS: 1000, ClassifyLen: [2]int{8, 16}, PromptLen: 16,
		gen: func(rng *rand.Rand, c int) func(i int) request {
			input := &deck{rng: rng, n: poolSize}
			return func(i int) request {
				// One request in eight is a short classify: a stream cohort
				// reads shards once and never again, and an end-to-end metric
				// may not be zero, so these keep bytes_read_per_req alive
				// without moving any work off the step loop.
				if i%8 == 7 {
					return request{Kind: kindClassify, Model: "a", Inputs: []int{input.draw()}}
				}
				return request{Kind: kindGenerate, Model: "a", Inputs: []int{input.draw()}, MaxNew: 32}
			}
		},
	},
	{
		Name:    "cold_tier_churn",
		Why:     "the paper's scenario: one client round-robins two models x three tiers under a 256 KiB budget and a 1 MiB cache against a ~30 MB working set, with a budget change every 50 requests: store, quant, planner and warm/materialise dominate",
		Models:  []modelSpec{{Name: "a", Seed: 1, Weight: 2}, modelB},
		Budgets: []int64{256 << 10, 1 << 20}, Replicas: 1,
		Conns: 1, Warmup: 24,
		LimitMS: 400, ClassifyLen: [2]int{8, 16}, PromptLen: 8,
		gen: func(rng *rand.Rand, c int) func(i int) request {
			input := &deck{rng: rng, n: poolSize}
			return func(i int) request {
				if i%50 == 49 {
					// Request 49 grows the budget, 99 shrinks it back, and so on.
					return request{Kind: kindBudget, Budget: []int64{1 << 20, 256 << 10}[(i/50)%2]}
				}
				r := request{Model: []string{"a", "b"}[i%2], TargetMS: ladderMS[(i/2)%3], Inputs: []int{input.draw()}}
				if i%4 == 2 {
					// Even i: generates go to model a, whose two-thirds share of
					// 256 KiB holds one KV page at the widest tier; b's third does not.
					r.Kind, r.MaxNew = kindGenerate, 8
				}
				return r
			}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// workloadRNG derives a workload's generator from the run seed. Streams
// are numbered so inputs, per-client sequences and the arrival schedule
// are independent of each other.
func workloadRNG(w *workload, seed int64, stream int) *rand.Rand {
	idx := 0
	for i, x := range workloads {
		if x == w {
			idx = i
		}
	}
	return rand.New(rand.NewSource(seed*1_000_003 + int64(idx)*1009 + int64(stream)))
}

const (
	streamPools    = 0
	streamSchedule = 1
	streamClients  = 2 // client c draws from streamClients+c
)

// makePools draws the workload's inputs. Lengths cover the workload's
// range evenly (shuffled), so every seed carries the same amount of work;
// token 0 is left out so no input is all padding-like ids.
func makePools(w *workload, seed int64) pools {
	rng := workloadRNG(w, seed, streamPools)
	draw := func(n int) []int {
		t := make([]int, n)
		for i := range t {
			t[i] = 1 + rng.Intn(geometry.Vocab-1)
		}
		return t
	}
	var p pools
	lo, span := w.ClassifyLen[0], w.ClassifyLen[1]-w.ClassifyLen[0]+1
	for _, i := range rng.Perm(poolSize) {
		p.classify = append(p.classify, draw(lo+i*span/poolSize))
		p.prompts = append(p.prompts, draw(w.PromptLen))
	}
	return p
}

// clientGen is client c's request generator for a seed.
func clientGen(w *workload, seed int64, c int) func(i int) request {
	return w.gen(workloadRNG(w, seed, streamClients+c), c)
}

// schedule returns the open loop's arrival offsets and when the window
// opens: Warmup arrivals before it, rate x window after. Arrivals are
// Poisson within each second — Rate of them, placed uniformly — so bodies
// still clump and collide, but every second and every seed carries the
// same load; plain Poisson gaps over a 20 s window differ by seed more
// than any change this benchmark is meant to resolve.
func schedule(w *workload, seed int64, window time.Duration) (offsets []time.Duration, open time.Duration) {
	rng := workloadRNG(w, seed, streamSchedule)
	perSecond := int(w.Rate)
	for n := 0; n < w.Warmup+perSecond*int(window.Seconds()); n += perSecond {
		at := make([]time.Duration, perSecond)
		for i := range at {
			at[i] = time.Duration(n/perSecond)*time.Second + time.Duration(rng.Float64()*float64(time.Second))
		}
		sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
		offsets = append(offsets, at...)
	}
	return offsets, time.Duration(w.Warmup/perSecond) * time.Second
}
