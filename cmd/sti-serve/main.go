// Command sti-serve exposes a fleet of preprocessed STI models as a
// concurrent JSON-over-HTTP inference service: per-model planned
// pipelines, bounded admission queues with load shedding, per-request
// deadlines derived from each model's latency target, batched
// execution, replica pools, continuously batched generate streams and
// live budget replanning. README.md's "Serving" section documents every
// flag and /v1/stats field; internal/httpserve builds and runs the
// server.
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
// The scheduling knobs have one value each: every model gets a
// 64-deep admission queue, 2 scheduler workers per replica, batches of
// up to 8 queued classify inputs gathered for at most 2 ms, at most 64
// concurrently decoding generate streams and a ring of its 8 slowest
// traces; a router assumes a 200 ms SLO for a request without
// target_ms.
//
// Shards are read when a request's layer stream needs them, or ahead
// of it only as the planned preload buffer; a model's replicas read
// through one single-flight cache that keeps the last -sharedcache
// bytes of payloads.
//
// Multiple -model flags serve multiple models from one budget; a spec
// may override the default target and weight per model:
//
//	sti-serve -model sentiment=/tmp/sst2,target=150ms,weight=2 \
//	          -model nextword=/tmp/qnli,target=300ms,weight=1
//
// -mode turns one binary into a multi-node cluster. A static peer list
// is shared by every process; consistent hashing places each model on
// ReplicationFactor nodes without coordination, and the router forwards
// each /v2/infer request to a node holding its model:
//
//	sti-serve -mode node -node a -peers "$PEERS" -model ... # on h1
//	sti-serve -mode node -node b -peers "$PEERS" -model ... # on h2
//	sti-serve -mode router -peers "$PEERS" -addr :9090
//
// SIGINT/SIGTERM shut down gracefully: a node first reports draining
// via /healthz for -draingrace so the router moves its models away;
// then the listener closes, in-flight HTTP requests drain, and the
// scheduler serves or sheds whatever is still queued before the
// process exits. A second signal kills it at once.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sti/internal/httpserve"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // the flag set already printed the error and usage
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal then kills at once
	if err := httpserve.Run(ctx, cfg); err != nil {
		log.Fatalf("sti-serve: %v", err)
	}
}

// parseFlags reads a command line into a server configuration.
func parseFlags(args []string) (httpserve.Config, error) {
	var c httpserve.Config
	err := newFlagSet(&c).Parse(args)
	return c, err
}

// newFlagSet defines every sti-serve flag over the fields of c.
func newFlagSet(c *httpserve.Config) *flag.FlagSet {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.Var(&c.Models, "model", "model spec name=dir[,target=D][,weight=W]; repeatable (required)")
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.Device, "device", "odroid", "device profile: odroid or jetson")
	fs.Int64Var(&c.Budget, "budget", 256<<10, "fleet-wide preload budget in bytes")
	fs.IntVar(&c.Replicas, "replicas", 1, "pipeline-engine replicas per model: they share the model's one preload buffer under its grant, plan against grant/N and read through one single-flight shard cache; the count is fixed for the process's life. Each model gets 2 scheduler workers per replica")
	fs.Float64Var(&c.Slack, "slack", 4, "request deadline = slack x model target")
	fs.Int64Var(&c.SharedCache, "sharedcache", 1<<20, "per-model shared shard-cache retention in bytes: the single-flight dedup window its replicas read through (0 keeps pure coalescing only)")
	fs.StringVar(&c.Mode, "mode", "standalone", "serving mode: standalone (default), node (cluster member; needs -node and -peers), or router (cluster frontend; needs -peers, takes no -model)")
	fs.StringVar(&c.Peers, "peers", "", "static cluster membership: comma-separated name=url pairs, identical on every router and node")
	fs.StringVar(&c.Node, "node", "", "this process's name in -peers (node mode)")
	fs.DurationVar(&c.DrainGrace, "draingrace", time.Second, "node mode: how long to advertise draining via /healthz before closing the listener, so the router rebalances first")
	fs.BoolVar(&c.Pprof, "pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	return fs
}
