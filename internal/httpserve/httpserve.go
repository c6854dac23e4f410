// Package httpserve is the one way to build and run an sti-serve
// process: Config holds the command line, New builds the handler for
// standalone, node or router mode, and Run serves it until its context
// ends, then drains.
package httpserve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"sti"
	"sti/internal/cluster"
	"sti/internal/obs"
	"sti/internal/obs/obshttp"
	"sti/internal/tokenizer"
)

// Config is an sti-serve command line: one field per flag, named after
// it. cmd/sti-serve documents each flag and its default.
type Config struct {
	Models      ModelSpecs // -model, repeatable
	Addr        string
	Device      string
	Budget      int64
	Replicas    int
	Slack       float64
	SharedCache int64
	Mode        string
	Peers       string
	Node        string
	DrainGrace  time.Duration
	Pprof       bool
}

// maxBatch caps the queued classify inputs one batched execution
// serves: a batch of 8 reads each shard once for eight requests.
const maxBatch = 8

// ModelSpec is one -model flag: name=dir[,target=D][,weight=W].
type ModelSpec struct {
	Name   string
	Dir    string
	Target time.Duration
	Weight float64
}

// ModelSpecs is the repeatable -model flag.
type ModelSpecs []ModelSpec

func (m *ModelSpecs) String() string { return fmt.Sprint(*m) }

// Set parses and appends one spec. A target must be positive: the
// planner cannot plan for a zero or negative latency.
func (m *ModelSpecs) Set(v string) error {
	spec := ModelSpec{Target: 200 * time.Millisecond, Weight: 1}
	for i, part := range strings.Split(v, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("model spec %q: want name=dir[,target=D][,weight=W]", v)
		}
		switch {
		case i == 0:
			spec.Name, spec.Dir = key, val
		case key == "target":
			d, err := time.ParseDuration(val)
			if err != nil {
				return fmt.Errorf("model spec %q: %w", v, err)
			}
			if d <= 0 {
				return fmt.Errorf("model spec %q: target %v is not positive", v, d)
			}
			spec.Target = d
		case key == "weight":
			w, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("model spec %q: %w", v, err)
			}
			spec.Weight = w
		default:
			return fmt.Errorf("model spec %q: unknown option %q", v, key)
		}
	}
	if spec.Name == "" || spec.Dir == "" {
		return fmt.Errorf("model spec %q: empty name or dir", v)
	}
	*m = append(*m, spec)
	return nil
}

// devices resolves -device.
var devices = map[string]func() *sti.Device{"odroid": sti.Odroid, "jetson": sti.Jetson}

// Validate reports every startup error in c at once. A router serves no
// models, so it checks only the cluster flags.
func (c Config) Validate() error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	switch c.Mode {
	case "router":
		if len(c.Models) > 0 {
			fail("-mode router takes no -model: the router serves no models itself")
		}
	case "node":
		if c.Peers == "" || c.Node == "" {
			fail("-mode node requires -node and -peers")
		}
	case "standalone":
		if c.Peers != "" || c.Node != "" {
			fail("-peers/-node need -mode node or -mode router")
		}
	default:
		fail("unknown -mode %q (standalone, node, or router)", c.Mode)
	}
	if c.Mode == "router" || c.Mode == "node" && c.Peers != "" {
		if _, err := cluster.ParsePeers(c.Peers); err != nil {
			fail("-peers: %w", err)
		}
	}
	if c.Mode == "router" {
		return errors.Join(errs...)
	}
	if len(c.Models) == 0 {
		fail("at least one -model is required")
	}
	if c.Budget < 0 {
		fail("-budget %d: the preload budget cannot be negative", c.Budget)
	}
	if c.Replicas < 1 {
		fail("-replicas %d: need at least one replica", c.Replicas)
	}
	if !(c.Slack > 0) {
		fail("-slack %v: the deadline multiplier must be positive", c.Slack)
	}
	if c.SharedCache < 0 {
		fail("-sharedcache %d: the shared-cache retention cannot be negative", c.SharedCache)
	}
	if devices[c.Device] == nil {
		fail("unknown -device %q (odroid or jetson)", c.Device)
	}
	return errors.Join(errs...)
}

// New validates cfg and builds the process's handler: /metrics in every
// mode; the serving surface over a planned fleet and its scheduler,
// plus GET /cluster/shard in node mode; the cluster router in
// router mode; and the net/http/pprof endpoints when -pprof asks for
// them (they expose heap and CPU internals, so they are opt-in). Close
// releases what it started.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The observability hub is the process root every layer registers
	// into: /metrics exposition, runtime scrape, request tracing and
	// the exemplar rings behind /v1/debug/trace.
	hub := obs.NewHub(0)
	obs.RegisterRuntimeMetrics(hub.Registry())
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", obshttp.Metrics(hub))
	s := &Server{hub: hub, handler: mux}
	if cfg.Mode == "router" {
		peers, err := cluster.ParsePeers(cfg.Peers)
		if err != nil {
			return nil, err
		}
		if s.router, err = cluster.NewRouter(peers, cluster.RouterOptions{Obs: hub}); err != nil {
			return nil, err
		}
		mux.Handle("/", s.router)
		log.Printf("routing for %d node(s)", len(peers))
	} else if err := s.serveFleet(cfg, mux); err != nil {
		return nil, err
	}
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// serveFleet builds the fleet and its scheduler and mounts the serving
// surface on mux.
func (s *Server) serveFleet(cfg Config, mux *http.ServeMux) error {
	fleet, err := newFleet(cfg)
	if err != nil {
		return err
	}
	fleet.SetObservability(s.hub)
	s.fleet = fleet
	s.sched = sti.NewScheduler(fleet, serveOptions(cfg, s.hub))
	s.models = make(map[string]modelInfo)
	for _, name := range fleet.Names() {
		e, _ := fleet.Entry(name)
		mc := e.System.Store.Man.Config
		s.models[name] = modelInfo{tok: tokenizer.New(mc.Vocab, mc.MaxSeq), vocab: mc.Vocab, maxSeq: mc.MaxSeq}
	}
	mux.HandleFunc("POST /v2/infer", s.handleInfer)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/budget", s.handleBudget)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/debug/trace", obshttp.Traces(s.hub, nil))
	if cfg.Mode != "node" {
		return nil
	}
	// A node also serves GET /cluster/shard, and every model's shared
	// cache gains its peer level.
	peers, err := cluster.ParsePeers(cfg.Peers)
	if err == nil {
		s.node, err = cluster.NewNode(fleet, cfg.Node, peers)
	}
	if err != nil {
		s.Close()
		return err
	}
	mux.Handle("/cluster/", s.node.Handler())
	log.Printf("cluster node %q of %d peer(s); peer shard cache enabled", cfg.Node, len(peers))
	return nil
}

// serveOptions is the scheduler cfg asks for: two workers per replica,
// so dispatch keeps every replica busy and overlaps batch executions,
// batches of up to maxBatch, and the library defaults for the rest.
func serveOptions(cfg Config, hub *obs.Hub) sti.ServeOptions {
	return sti.ServeOptions{Workers: 2 * cfg.Replicas, Slack: cfg.Slack, MaxBatch: maxBatch, Obs: hub}
}

// newFleet loads every -model store, applies the per-model replica and
// shared-cache settings, and plans the fleet.
func newFleet(cfg Config) (*sti.Fleet, error) {
	dev := devices[cfg.Device]()
	fleet := sti.NewFleet(cfg.Budget)
	for _, spec := range cfg.Models {
		sys, err := sti.Load(spec.Dir, dev, 0)
		if err != nil {
			return nil, fmt.Errorf("loading %q: %w", spec.Name, err)
		}
		if err := fleet.Add(spec.Name, sys, spec.Target, spec.Weight); err != nil {
			return nil, err
		}
		if err := errors.Join(fleet.SetReplicas(spec.Name, cfg.Replicas),
			fleet.SetSharedCacheRetain(spec.Name, cfg.SharedCache)); err != nil {
			return nil, err
		}
		log.Printf("loaded %q from %s (target %v, weight %v, %d replica(s))",
			spec.Name, spec.Dir, spec.Target, spec.Weight, cfg.Replicas)
	}
	if err := fleet.Replan(); err != nil {
		return nil, fmt.Errorf("initial replan: %w", err)
	}
	for _, name := range fleet.Names() {
		e, _ := fleet.Entry(name)
		ps, _ := fleet.ReplicaStats(name)
		log.Printf("planned %q: %s (budget %d KB across %d replica(s) = %d KB each, preload %d KB)",
			name, e.Plan, e.Budget>>10, e.Replicas, ps.PerReplica>>10, e.Plan.PreloadUsed>>10)
		for _, tier := range e.Tiers {
			mc := e.System.Store.Man.Config
			log.Printf("  tier %v: %dx%d fidelity %.2f",
				tier.Target, tier.Plan.Depth, tier.Plan.Width, tier.Plan.Fidelity(mc.Layers, mc.Heads))
		}
	}
	return fleet, nil
}

// Close stops what New started: the cluster node or router, then the
// scheduler, which serves or sheds whatever is still queued.
func (s *Server) Close() {
	if s.node != nil {
		s.node.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	if s.sched != nil {
		s.sched.Close()
	}
}

// Run serves cfg on cfg.Addr until ctx is done, then drains: it marks
// the scheduler draining (visible in /healthz and /v1/stats), and in
// node mode keeps serving for -draingrace so the router's health poll
// moves the node's models away first; then it stops accepting
// connections, waits for in-flight HTTP requests, and closes the cluster
// node or router and finally the scheduler. No in-flight request is
// shed. Run returns an error only if the server cannot be built or its
// listener fails.
func Run(ctx context.Context, cfg Config) error {
	s, err := New(cfg)
	if err != nil {
		return err
	}
	srv := &http.Server{Addr: cfg.Addr, Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving (%s mode) on %s", cfg.Mode, cfg.Addr)

	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	log.Printf("draining in-flight requests")
	if s.sched != nil {
		s.sched.SetDraining(true)
	}
	if cfg.Mode == "node" {
		time.Sleep(cfg.DrainGrace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	s.Close()
	log.Printf("drained; exiting")
	return nil
}
