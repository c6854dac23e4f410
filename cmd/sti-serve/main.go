// Command sti-serve exposes a fleet of preprocessed STI models as a
// concurrent JSON-over-HTTP inference service: per-model planned
// pipelines, bounded admission queues with load shedding, per-request
// deadlines derived from each model's latency target, and live budget
// replanning.
//
//	sti-preprocess -out /tmp/sst2 -task SST-2 -train
//	sti-serve -model sentiment=/tmp/sst2 -budget 262144 -addr :8080
//
//	# task-typed: classify (default) or generate (streams SSE tokens)
//	curl -s localhost:8080/v2/infer -d '{"model":"sentiment","text":"wonderful gripping story"}'
//	curl -s localhost:8080/v2/infer -d '{"model":"sentiment","inputs":[{"text":"loved it"},{"text":"dreadful"}]}'
//	curl -sN localhost:8080/v2/infer -d '{"model":"sentiment","task":"generate","text":"once upon","max_new_tokens":8}'
//
//	# per-request SLO: target_ms rides the tightest plan tier that meets
//	# it (the response's tier_ms/fidelity report which tier served it)
//	curl -s localhost:8080/v2/infer -d '{"model":"sentiment","text":"quick check","target_ms":100}'
//
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/budget -d '{"budget_bytes":131072}'
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, in-flight
// HTTP requests drain, then the scheduler serves or sheds whatever is
// still queued before the process exits.
//
// Multi-input bodies (and any concurrent single requests for the same
// model) are drained by the scheduler's batch accumulator into one
// batched execution whose IO/decompress stream is shared by the whole
// batch: /v1/stats reports avg_batch and bytes_per_request so the
// amortization is visible. -maxbatch and -batchwindow tune it.
//
// Multiple -model flags serve multiple models from one budget; a spec
// may override the default target and weight per model:
//
//	sti-serve -model sentiment=/tmp/sst2,target=150ms,weight=2 \
//	          -model nextword=/tmp/qnli,target=300ms,weight=1
//
// -replicas N serves every model from an elastic pool of N pipeline
// engines: each replica owns a slice (grant/N) of the model's preload
// budget, requests dispatch least-loaded, and all replicas stream
// shards through one single-flight cache so concurrent executions of
// the same plan cost ~1× flash IO. Queue pressure past the high-water
// mark regrows a drained pool up to N; a sustained idle queue drains
// replicas (in-flight work finishes first) and returns their bytes.
// /v1/stats reports replicas, per-replica served counters
// (replica_served) and the dedup counters (singleflight_hits,
// flash_reads, singleflight_bytes_saved). -workers must be at least
// -replicas; when unset it defaults to 2× replicas.
//
// Generate traffic is continuously batched: each replica runs a step
// loop that admits new streams between decode steps and serves every
// in-flight sequence with one batched forward per step, with KV state
// in paged blocks charged against the model's preload grant.
// -maxstreams caps the concurrently decoding streams (scheduler-wide
// and per replica step loop); /v1/stats reports the step-loop counters
// under each model's "gen" object (gen_steps, gen_streams,
// gen_avg_streams_per_step, gen_preempted, gen_kv_bytes, ...).
//
// -mode turns one binary into a multi-node cluster. A static peer list
// (-peers "a=http://h1:8080,b=http://h2:8080") is shared by every
// process; consistent hashing places each model on ReplicationFactor
// nodes without coordination:
//
//	sti-serve -mode node -node a -peers "$PEERS" -model ... # on h1
//	sti-serve -mode node -node b -peers "$PEERS" -model ... # on h2
//	sti-serve -mode router -peers "$PEERS" -addr :9090
//
// The router terminates /v2/infer (SSE generate streams included) and
// forwards each request to a node holding its model with a per-hop
// deadline derived from the request SLO; shed or unreachable classify
// retries once on a different holder. Nodes additionally serve
// /cluster/*: a donor endpoint that lets a peer's shared cache fetch a
// retained shard payload instead of reading flash (the cache's second
// level), and the arrival-observation intake that keeps each model's
// owning predictor trained on its full arrival stream. On
// SIGINT/SIGTERM a node reports draining via /healthz for -draingrace
// before closing its listener, so the router rebalances its models away
// without shedding a single in-flight request.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sti"
	"sti/internal/obs"
)

// concurrencyFor resolves the scheduler worker count against the
// replica count. Each replica only ever receives traffic from a
// scheduler worker, so fewer workers than replicas would leave
// replicas permanently idle while their preload buffers hold budget:
// an explicit -workers below -replicas is a configuration error, and
// an unset -workers defaults to 2 workers per replica so dispatch can
// keep every replica busy and overlap batch executions. Queue drains do
// not scale with it: at most min(workers, GOMAXPROCS) workers gather a
// model's queue at once, so a burst forms one batch per CPU.
func concurrencyFor(workers int, workersSet bool, replicas int) (int, error) {
	if replicas < 1 {
		return 0, fmt.Errorf("-replicas %d: need at least one replica", replicas)
	}
	if !workersSet {
		if w := 2 * replicas; w > workers {
			return w, nil
		}
		return workers, nil
	}
	if workers < 1 {
		return 0, fmt.Errorf("-workers %d: need at least one worker", workers)
	}
	if workers < replicas {
		return 0, fmt.Errorf("-workers %d < -replicas %d: every replica needs at least one scheduler worker to receive traffic", workers, replicas)
	}
	return workers, nil
}

// predictConfigFor validates the predictive-subsystem flags and builds
// the fleet's prediction options. The prefetcher stages shard payloads
// in the per-model shared cache, so -prefetch with a zero-byte cache
// could never keep anything it fetched: reject the combination loudly
// instead of running a predictor whose every prefetch is wasted.
func predictConfigFor(prefetch, speculate bool, sharedCacheBytes int64) (sti.PredictOptions, bool, error) {
	if prefetch && sharedCacheBytes <= 0 {
		return sti.PredictOptions{}, false, fmt.Errorf(
			"-prefetch requires a non-zero -sharedcache: prefetched shard payloads are staged in the per-model shared cache, and a zero-byte cache discards every one")
	}
	if !prefetch && !speculate {
		return sti.PredictOptions{}, false, nil
	}
	return sti.PredictOptions{Prefetch: prefetch, Speculate: speculate}, true, nil
}

// modelSpec is one parsed -model flag: name=dir[,target=D][,weight=W].
type modelSpec struct {
	name   string
	dir    string
	target time.Duration
	weight float64
}

type modelFlags []modelSpec

func (m *modelFlags) String() string {
	var parts []string
	for _, s := range *m {
		parts = append(parts, s.name+"="+s.dir)
	}
	return strings.Join(parts, " ")
}

func (m *modelFlags) Set(v string) error {
	spec := modelSpec{target: 200 * time.Millisecond, weight: 1}
	for i, part := range strings.Split(v, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("model spec %q: want name=dir[,target=D][,weight=W]", v)
		}
		switch {
		case i == 0:
			spec.name, spec.dir = key, val
		case key == "target":
			d, err := time.ParseDuration(val)
			if err != nil {
				return fmt.Errorf("model spec %q: %w", v, err)
			}
			spec.target = d
		case key == "weight":
			w, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("model spec %q: %w", v, err)
			}
			spec.weight = w
		default:
			return fmt.Errorf("model spec %q: unknown option %q", v, key)
		}
	}
	if spec.name == "" || spec.dir == "" {
		return fmt.Errorf("model spec %q: empty name or dir", v)
	}
	*m = append(*m, spec)
	return nil
}

func main() {
	var models modelFlags
	flag.Var(&models, "model", "model spec name=dir[,target=D][,weight=W]; repeatable (required)")
	addr := flag.String("addr", ":8080", "listen address")
	deviceName := flag.String("device", "odroid", "device profile: odroid or jetson")
	budget := flag.Int64("budget", 256<<10, "fleet-wide preload budget in bytes")
	queue := flag.Int("queue", 64, "admission queue depth per model")
	workers := flag.Int("workers", 2, "scheduler worker goroutines per model (default 2, or 2x -replicas when -replicas is set; must be >= -replicas); all may execute batches, at most min(workers, GOMAXPROCS) gather the queue at once")
	replicas := flag.Int("replicas", 1, "pipeline-engine replicas per model: each gets its own preload-buffer slice, all share one single-flight shard cache; also the elastic ceiling queue pressure can scale up to")
	slack := flag.Float64("slack", 4, "request deadline = slack x model target")
	maxBatch := flag.Int("maxbatch", 8, "max queued requests drained into one batched execution (1 disables batching)")
	batchWindow := flag.Duration("batchwindow", 2*time.Millisecond, "how long a worker waits for a batch to fill")
	maxStreams := flag.Int("maxstreams", 64, "max concurrently decoding generate streams, scheduler-wide and per replica step loop (continuous batching admits up to this many sequences per batched decode step)")
	prefetch := flag.Bool("prefetch", false, "enable predictive shard prefetch: a sequence predictor trained on each model's shard-access order pulls predicted payloads into the shared cache ahead of the compute front (requires -sharedcache > 0)")
	speculate := flag.Bool("speculate", false, "enable speculative tier warming and pre-emptive replica scale advice driven by each model's arrival-rate trend")
	sharedCache := flag.Int64("sharedcache", 1<<20, "per-model shared shard-cache retention in bytes (single-flight dedup window + prefetch staging area; 0 keeps pure coalescing only)")
	mode := flag.String("mode", "standalone", "serving mode: standalone (default), node (cluster member; needs -node and -peers), or router (cluster frontend; needs -peers, takes no -model)")
	peersSpec := flag.String("peers", "", "static cluster membership: comma-separated name=url pairs, identical on every router and node")
	nodeName := flag.String("node", "", "this process's name in -peers (node mode)")
	drainGrace := flag.Duration("draingrace", time.Second, "node mode: how long to advertise draining via /healthz before closing the listener, so the router rebalances first")
	routerTarget := flag.Duration("target", 200*time.Millisecond, "router mode: SLO assumed for requests without target_ms when deriving per-hop deadlines")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	traceRing := flag.Int("tracering", 8, "per-model exemplar traces retained for /v1/debug/trace (slowest plus all erroring)")
	noTrace := flag.Bool("notrace", false, "disable per-request span capture (metrics and /metrics stay on)")
	flag.Parse()

	// The observability hub is the process root every layer registers
	// into: /metrics exposition, runtime scrape, request tracing and
	// the exemplar rings behind /v1/debug/trace.
	hub := obs.NewHub(*traceRing)
	hub.SetTracing(!*noTrace)
	obs.RegisterRuntimeMetrics(hub.Registry())

	switch *mode {
	case "router":
		runRouter(*addr, *peersSpec, *routerTarget, hub, *pprofOn)
		return
	case "node":
		if *peersSpec == "" || *nodeName == "" {
			log.Fatal("sti-serve: -mode node requires -node and -peers")
		}
	case "standalone":
		if *peersSpec != "" || *nodeName != "" {
			log.Fatal("sti-serve: -peers/-node need -mode node or -mode router")
		}
	default:
		log.Fatalf("sti-serve: unknown -mode %q (standalone, node, or router)", *mode)
	}
	if len(models) == 0 {
		log.Fatal("sti-serve: at least one -model is required")
	}
	workersSet := false
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "workers" {
			workersSet = true
		}
	})
	w, err := concurrencyFor(*workers, workersSet, *replicas)
	if err != nil {
		log.Fatalf("sti-serve: %v", err)
	}
	*workers = w
	popts, predictOn, err := predictConfigFor(*prefetch, *speculate, *sharedCache)
	if err != nil {
		log.Fatalf("sti-serve: %v", err)
	}

	var dev *sti.Device
	switch *deviceName {
	case "odroid":
		dev = sti.Odroid()
	case "jetson":
		dev = sti.Jetson()
	default:
		log.Fatalf("sti-serve: unknown device %q", *deviceName)
	}

	fleet := sti.NewFleet(*budget)
	for _, spec := range models {
		sys, err := sti.Load(spec.dir, dev, 0)
		if err != nil {
			log.Fatalf("sti-serve: loading %q: %v", spec.name, err)
		}
		if err := fleet.Add(spec.name, sys, spec.target, spec.weight); err != nil {
			log.Fatal(err)
		}
		if err := fleet.SetReplicas(spec.name, *replicas); err != nil {
			log.Fatal(err)
		}
		if err := fleet.ConfigureReplicas(spec.name, sti.ReplicaOptions{MaxStreams: *maxStreams}); err != nil {
			log.Fatal(err)
		}
		if err := fleet.SetSharedCacheRetain(spec.name, *sharedCache); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %q from %s (target %v, weight %v, %d replica(s))",
			spec.name, spec.dir, spec.target, spec.weight, *replicas)
	}
	if err := fleet.Replan(); err != nil {
		log.Fatalf("sti-serve: initial replan: %v", err)
	}
	for _, name := range fleet.Names() {
		e, _ := fleet.Entry(name)
		ps, _ := fleet.ReplicaStats(name)
		log.Printf("planned %q: %s (budget %d KB across %d replica(s) = %d KB each, preload %d KB)",
			name, e.Plan, e.Budget>>10, e.Replicas, ps.PerReplica>>10, e.Plan.PreloadUsed>>10)
		for _, tier := range e.Tiers {
			cfg := e.System.Store.Man.Config
			log.Printf("  tier %v: %dx%d fidelity %.2f",
				tier.Target, tier.Plan.Depth, tier.Plan.Width,
				tier.Plan.Fidelity(cfg.Layers, cfg.Heads))
		}
	}

	if predictOn {
		if err := fleet.EnablePrediction(popts); err != nil {
			log.Fatalf("sti-serve: %v", err)
		}
		r := popts.WithDefaults()
		log.Printf("prediction enabled: prefetch=%v speculate=%v interval=%v lookahead=%d minconf=%d warmtrend=%.2f rps cooldown=%v horizon=%v sharedcache=%d KB/model",
			r.Prefetch, r.Speculate, r.Interval, r.Lookahead, r.MinConfidence, r.WarmTrend, r.WarmCooldown, r.Horizon, *sharedCache>>10)
	} else {
		log.Printf("prediction disabled (enable with -prefetch and/or -speculate)")
	}

	fleet.SetObservability(hub)
	sched := sti.NewScheduler(fleet, sti.ServeOptions{
		QueueDepth: *queue, Workers: *workers, Slack: *slack,
		MaxBatch: *maxBatch, BatchWindow: *batchWindow,
		MaxStreams: *maxStreams, Obs: hub,
	})

	// In node mode the ordinary serving surface gains the /cluster/*
	// endpoints and every model's shared cache gains its peer level.
	handler := http.Handler(newServer(fleet, sched, hub))
	var node *sti.ClusterNode
	if *mode == "node" {
		peers, err := sti.ParseClusterPeers(*peersSpec)
		if err != nil {
			log.Fatalf("sti-serve: -peers: %v", err)
		}
		node, err = sti.NewClusterNode(fleet, *nodeName, peers, sti.ClusterNodeOptions{})
		if err != nil {
			log.Fatalf("sti-serve: %v", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/cluster/", node.Handler())
		mux.Handle("/", handler)
		handler = mux
		log.Printf("cluster node %q of %d peer(s); peer shard cache enabled", *nodeName, len(peers))
	}
	handler = withPprof(handler, *pprofOn)

	// Graceful shutdown: SIGINT/SIGTERM marks the scheduler draining
	// (visible in /healthz and /v1/stats; in node mode the router's
	// health poll pulls this node out of rotation within -draingrace),
	// then stops accepting connections, drains in-flight HTTP requests,
	// and finally drains the scheduler's queues — nothing dies
	// mid-pipeline and no in-flight request is shed.
	srv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving %d model(s) on %s", len(models), *addr)

	select {
	case err := <-errc:
		sched.Close()
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		sched.SetDraining(true)
		log.Printf("signal received; draining in-flight requests")
		if *mode == "node" {
			time.Sleep(*drainGrace) // let the router notice before the listener closes
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("sti-serve: http shutdown: %v", err)
		}
		if node != nil {
			node.Close()
		}
		sched.Close() // serve or shed whatever is still queued
		log.Printf("drained; exiting")
	}
}

// withPprof optionally mounts the net/http/pprof endpoints in front of
// the serving surface. Opt-in: profiling handlers expose heap and CPU
// internals, so they are off unless -pprof asks for them.
func withPprof(h http.Handler, enable bool) http.Handler {
	if !enable {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// runRouter is -mode router: no fleet, no models — just the cluster
// frontend forwarding to the nodes in -peers.
func runRouter(addr, peersSpec string, target time.Duration, hub *obs.Hub, pprofOn bool) {
	peers, err := sti.ParseClusterPeers(peersSpec)
	if err != nil {
		log.Fatalf("sti-serve: -peers: %v", err)
	}
	rt, err := sti.NewClusterRouter(peers, sti.ClusterRouterOptions{DefaultTarget: target, Obs: hub})
	if err != nil {
		log.Fatalf("sti-serve: %v", err)
	}
	srv := &http.Server{Addr: addr, Handler: withPprof(rt, pprofOn)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("routing for %d node(s) on %s", len(peers), addr)

	select {
	case err := <-errc:
		rt.Close()
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received; draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("sti-serve: http shutdown: %v", err)
		}
		rt.Close()
		log.Printf("drained; exiting")
	}
}
