package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the benchmark's last line of output: exactly these keys.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is what a run writes to bench/out: the verdict plus everything
// needed to judge and reproduce it.
type result struct {
	verdict
	// Samples is how many observations each timing metric was read from.
	Samples map[string]int `json:"samples"`
	// Diagnostics are numbers worth seeing that do not repeat well enough
	// on a small shared host to carry a bound (tails, generator lateness).
	Diagnostics map[string]metricValue `json:"diagnostics"`
	Errors      []string               `json:"errors,omitempty"`
	Claim       *string                `json:"claim"` // a benchmark-defining change claims no gain
	Provenance  provenance             `json:"provenance"`
}

func newResult() *result {
	return &result{
		verdict:     verdict{Correct: true, Metrics: make(map[string]metricValue)},
		Samples:     make(map[string]int),
		Diagnostics: make(map[string]metricValue),
	}
}

type provenance struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Trace       bool      `json:"trace"`
	Seconds     int       `json:"seconds"`
	Geometry    string    `json:"geometry"`
	ServerFlags []string  `json:"server_flags"`
	Connections int       `json:"connections"`
	RatePerS    float64   `json:"rate_per_s,omitempty"`
	Warmup      int       `json:"warmup_requests"`
	LimitMS     float64   `json:"limit_ms"`
	SetupSpawns int       `json:"setup_spawns"`
	Host        hostFacts `json:"host"`
}

// hostFacts decide whether two results may be compared at all.
type hostFacts struct {
	GitCommit  string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readHostFacts(root string) hostFacts {
	h := hostFacts{GitCommit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown"}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	// A checkout need not be a repository; never search above it.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	pprof    bool
	outDir   string
}

// served is a started, warmed-up child with the run's set-up numbers.
type served struct {
	child      *child
	setup      []float64 // seconds, one per spawn
	setupFrom  time.Time // the spawns ran in [setupFrom, setupTo]
	setupTo    time.Time
	preprocess time.Duration // 0 when the stores were cached
	flags      []string
}

// startServer builds the program and its stores, spawns it the given
// number of times to time set-up, and leaves the last spawn running.
func startServer(ctx context.Context, e *env, cfg runConfig, p pools, spawns int) (*served, error) {
	bin, err := e.buildServer()
	if err != nil {
		return nil, err
	}
	sv := &served{}
	for _, m := range cfg.workload.Models {
		d, err := e.ensureStore(m)
		if err != nil {
			return nil, err
		}
		sv.preprocess += d
	}
	sv.flags = cfg.workload.serverFlags(e.storeDir)
	if cfg.pprof {
		sv.flags = append(sv.flags, "-pprof")
	}
	// The first classify is the pool's first input of the shortest length:
	// every seed's pool has one, so set-up is the same work on every seed.
	first := 0
	for i, in := range p.classify {
		if len(in) < len(p.classify[first]) {
			first = i
		}
	}
	probe := func(base string) error {
		cl := newClient(base, p, 1)
		defer cl.close()
		s := &sample{Req: request{Kind: kindClassify, Model: cfg.workload.Models[0].Name, Inputs: []int{first}}}
		cl.do(ctx, s, time.Now())
		if s.Err != "" {
			return fmt.Errorf("%s", s.Err)
		}
		return nil
	}
	logPath := filepath.Join(e.out, "logs", "sti-serve_"+cfg.workload.Name+".log")
	sv.setupFrom = time.Now()
	for i := 0; i < spawns; i++ {
		if sv.child != nil {
			sv.child.stop()
		}
		c, took, err := spawn(ctx, bin, sv.flags, logPath, probe)
		if err != nil {
			return nil, err
		}
		sv.child = c
		sv.setup = append(sv.setup, took.Seconds())
	}
	sv.setupTo = time.Now()
	return sv, nil
}

// runEndToEnd is the untraced run: real server, real HTTP, tracing off in
// the benchmark (the server's own always-on request tracing is part of
// what users get). Its timings are reported at the reference host speed
// (hostspeed.go).
func runEndToEnd(ctx context.Context, e *env, cfg runConfig) (*result, error) {
	w := cfg.workload
	p := makePools(w, cfg.seed)
	host := startHostMeter()
	defer host.close()
	sv, err := startServer(ctx, e, cfg, p, setupSpawns)
	if err != nil {
		return nil, err
	}
	defer sv.child.stop()

	var cpuBefore time.Duration
	var counterErr error
	profiles := make(chan error, 1)
	overHTTP := func(conns int) doer { return newClient(sv.child.base, p, conns) }
	load := runLoad(ctx, overHTTP, w, cfg.seed, time.Duration(cfg.seconds)*time.Second, func() {
		cpuBefore, counterErr = sv.child.cpuTime()
		if cfg.pprof {
			go func() { profiles <- pullProfiles(sv.child.base, cfg) }()
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if counterErr != nil {
		return nil, counterErr
	}
	cpuAfter, err := sv.child.cpuTime()
	if err != nil {
		return nil, err
	}
	cpu := cpuAfter - cpuBefore
	rss, err := sv.child.peakRSS()
	if err != nil {
		return nil, err
	}
	final, err := scrapeChild(sv.child.base)
	if err != nil {
		return nil, err
	}
	if cfg.pprof {
		if err := <-profiles; err != nil {
			return nil, err
		}
	}
	sv.child.stop()

	slow, probes := host.slowness(load.Start, load.End)
	setupSlow, setupProbes := host.slowness(sv.setupFrom, sv.setupTo)
	if probes == 0 || setupProbes == 0 {
		return nil, fmt.Errorf("bench: the host-speed probe never ran (window %d, set-up %d probes)", probes, setupProbes)
	}
	ref := newReference(w, p, e.storeDir)
	res := summarize(w, load, ref, slow)
	if err := ref.gateFires(load.Samples); err != nil {
		res.Correct = false
		res.Errors = append(res.Errors, err.Error())
	}
	ok := res.Attempted - res.Failed
	cpuPerReq := ms(cpu) / float64(max(ok, 1))
	res.Metrics["setup_s"] = metricValue{median(sv.setup) / setupSlow, "s"}
	res.Samples["setup_s"] = len(sv.setup)
	res.Metrics["cpu_ms_per_req"] = metricValue{cpuPerReq / slow, "ms"}
	res.Metrics["peak_rss_mb"] = metricValue{float64(rss) / (1 << 20), "MB"}
	res.Samples["host_slowness"] = probes
	res.Diagnostics["host_slowness_setup"] = metricValue{setupSlow, "ratio"}
	res.Diagnostics["raw_setup_s"] = metricValue{median(sv.setup), "s"}
	res.Diagnostics["raw_cpu_ms_per_req"] = metricValue{cpuPerReq, "ms"}
	res.Diagnostics["child_cpu_utilisation"] = metricValue{
		cpu.Seconds() / load.End.Sub(load.Start).Seconds() / float64(runtime.NumCPU()), "ratio"}
	res.Diagnostics["preprocess_s"] = metricValue{sv.preprocess.Seconds(), "s"}
	// The server's own view of the whole run, warm-up included.
	st := final.stats
	res.Diagnostics["server_avg_batch"] = metricValue{st.AvgBatch, "count"}
	res.Diagnostics["server_refused"] = metricValue{float64(st.Shed + st.DeadlineMiss + st.Failed), "count"}
	res.Diagnostics["server_downgraded"] = metricValue{float64(st.Downgraded), "count"}
	res.Diagnostics["server_replicas"] = metricValue{float64(st.Replicas), "count"}
	var scalings uint64
	for _, m := range st.Models {
		scalings += m.ScaleUps + m.ScaleDowns
	}
	res.Diagnostics["server_scalings"] = metricValue{float64(scalings), "count"}
	res.Provenance = cfg.provenance(e, sv.flags, setupSpawns)
	return res, nil
}

func (cfg runConfig) provenance(e *env, flags []string, spawns int) provenance {
	w := cfg.workload
	return provenance{
		Workload: w.Name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Geometry: geometryName, ServerFlags: flags, Connections: w.conns(), RatePerS: w.Rate,
		Warmup: w.Warmup, LimitMS: w.LimitMS, SetupSpawns: spawns, Host: readHostFacts(e.root),
	}
}

// summarize turns a load phase's samples into the client-side end-to-end
// metrics, checking every response against the reference first: a wrong
// answer is a failed operation. Latencies — and a closed loop's rates, which
// the server's speed sets; an open loop's are its schedule's — are reported
// at the reference host speed, given the host's slowness over the window.
func summarize(w *workload, load *loadResult, ref *reference, slowness float64) *result {
	res := newResult()
	wrong := ref.check(load.Samples)
	res.Correct = len(wrong) == 0

	var latency, ttft, gaps, budgetMS, httpOverhead, queued []float64
	var infer, inferOK, inLimit, tokens, results, downgraded int
	var bytesRead, fidelity float64
	for _, s := range load.Samples {
		if !s.Window {
			continue
		}
		res.Attempted++
		failed := s.Err != "" || wrong[s] != ""
		if failed {
			res.Failed++
			if len(res.Errors) < 20 {
				res.Errors = append(res.Errors, fmt.Sprintf("client %d request %d (%s %s): %s%s",
					s.Client, s.Index, s.Req.Kind, s.Req.Model, s.Err, wrong[s]))
			}
		}
		if s.Req.Kind == kindBudget {
			if !failed {
				budgetMS = append(budgetMS, ms(s.latency()))
			}
			continue
		}
		infer++
		if failed {
			continue
		}
		inferOK++
		lat := ms(s.latency()) / slowness
		latency = append(latency, lat)
		if lat <= w.LimitMS {
			inLimit++
		}
		ttft = append(ttft, ms(s.firstOutput().Sub(s.Due))/slowness)
		for i := 1; i < len(s.TokenAt); i++ {
			gaps = append(gaps, ms(s.TokenAt[i].Sub(s.TokenAt[i-1]))/slowness)
		}
		var serverMS float64
		for i, r := range s.Results {
			bytesRead += float64(r.BytesRead)
			fidelity += r.Fidelity
			results++
			if r.Downgraded {
				downgraded++
			}
			serverMS = max(serverMS, r.TotalMS)
			queued = append(queued, r.QueuedMS)
			if s.Req.Kind == kindGenerate {
				tokens += len(r.Tokens)
			} else {
				tokens += len(ref.pools.classify[s.Req.Inputs[i]])
			}
		}
		httpOverhead = append(httpOverhead, ms(s.Done.Sub(s.Sent))-serverMS)
	}
	elapsed := load.End.Sub(load.Start).Seconds()
	atReference := elapsed
	if w.Rate == 0 {
		atReference = elapsed / slowness
	}
	set := func(name string, v float64, unit string, n int) {
		res.Metrics[name] = metricValue{v, unit}
		res.Samples[name] = n
	}
	set("req_per_s", float64(inferOK)/atReference, "1/s", inferOK)
	set("tok_per_s", float64(tokens)/atReference, "1/s", tokens)
	set("latency_p50_ms", median(latency), "ms", len(latency))
	set("ttft_p50_ms", median(ttft), "ms", len(ttft))
	set("slo_attainment", float64(inLimit)/float64(max(infer, 1)), "ratio", infer)
	set("bytes_read_per_req", bytesRead/float64(max(inferOK, 1)), "B", inferOK)
	set("fidelity_mean", fidelity/float64(max(results, 1)), "ratio", results)

	diag := func(name string, v float64, unit string) { res.Diagnostics[name] = metricValue{v, unit} }
	diag("host_slowness", slowness, "ratio")
	diag("raw_req_per_s", float64(inferOK)/elapsed, "1/s")
	diag("raw_tok_per_s", float64(tokens)/elapsed, "1/s")
	diag("raw_latency_p50_ms", median(latency)*slowness, "ms")
	diag("raw_ttft_p50_ms", median(ttft)*slowness, "ms")
	diag("latency_tail_percentile", highestSupportedPercentile(len(latency)), "%")
	diag("latency_tail_ms", percentile(latency, highestSupportedPercentile(len(latency))), "ms")
	diag("latency_p90_ms", percentile(latency, 90), "ms")
	diag("latency_p99_ms", percentile(latency, 99), "ms")
	diag("itl_p50_ms", median(gaps), "ms")
	diag("itl_p99_ms", percentile(gaps, 99), "ms")
	diag("http_overhead_p50_ms", median(httpOverhead), "ms")
	diag("queue_wait_p50_ms", median(queued), "ms")
	diag("downgraded_ratio", float64(downgraded)/float64(max(results, 1)), "ratio")
	diag("budget_change_p50_ms", median(budgetMS), "ms")
	diag("window_s", elapsed, "s")
	var late []float64
	for _, d := range load.Lateness {
		late = append(late, ms(d))
	}
	diag("generator_lateness_p50_ms", median(late), "ms")
	diag("generator_lateness_p99_ms", percentile(late, 99), "ms")
	return res
}

// pullProfiles fetches a CPU profile covering the window and a heap
// profile at its end from the child's -pprof endpoints.
func pullProfiles(base string, cfg runConfig) error {
	for _, prof := range []struct{ path, kind string }{
		{fmt.Sprintf("/debug/pprof/profile?seconds=%d", cfg.seconds), "cpu"},
		{"/debug/pprof/heap", "heap"},
	} {
		resp, err := http.Get(base + prof.path)
		if err != nil {
			return fmt.Errorf("bench: pulling %s profile: %w", prof.kind, err)
		}
		name := filepath.Join(cfg.outDir, fmt.Sprintf("pprof_%s_seed%d.%s.pb.gz", cfg.workload.Name, cfg.seed, prof.kind))
		f, err := os.Create(name)
		if err == nil {
			_, err = io.Copy(f, resp.Body)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("bench: saving %s profile: %w", prof.kind, err)
		}
	}
	return nil
}

// writeResult stores a run's full result under dir and returns the path.
func writeResult(dir string, res *result) (string, error) {
	p := res.Provenance
	trace := 0
	if p.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("result_%s_seed%d_trace%d.json", p.Workload, p.Seed, trace))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics lists every metric by name with its unit.
func printMetrics(out io.Writer, title string, defs []metric, res *result) {
	fmt.Fprintf(out, "%s: correct=%v failed/attempted=%d/%d\n", title, res.Correct, res.Failed, res.Attempted)
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		n := ""
		if c, ok := res.Samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(out, "  %-36s %14.4f %-8s%s\n", d.Name, v.Value, v.Unit, n)
	}
	names := make([]string, 0, len(res.Diagnostics))
	for name := range res.Diagnostics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Diagnostics[name]
		fmt.Fprintf(out, "  %-36s %14.4f %-8s  (diagnostic)\n", name, v.Value, v.Unit)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
}
