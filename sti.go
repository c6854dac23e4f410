// Package sti is Speedy Transformer Inference: an engine that executes
// transformer NLP models on edge devices under tight target latencies
// with megabytes — not hundreds of megabytes — of parameter memory.
//
// It reproduces "STI: Turbocharge NLP Inference at the Edge via Elastic
// Pipelining" (Guo, Choe, Lin — ASPLOS 2023). The engine manages a
// model as N×M×K resource-elastic shards on flash (N layers × M
// vertical slices × K quantized fidelity versions), plans an
// IO/compute pipeline that never stalls by tracking per-layer
// Accumulated IO Budgets, warms the pipeline from a small preload
// buffer, and allocates fidelity to the shards that matter most.
//
// Typical workflow:
//
//	w := sti.NewRandomModel(sti.TinyConfig(), seed)       // or train one
//	sti.TrainModel(w, "SST-2", sti.DefaultTrainOptions()) // real path
//	man, _ := sti.Preprocess(dir, w, nil)                 // shard + quantize
//	sys, _ := sti.Load(dir, sti.Odroid(), 1<<20)          // open on device
//	plan, _ := sys.Plan(200*time.Millisecond, 1<<20)      // two-stage plan
//	sys.Warm(plan)                                        // fill preload buffer
//	resp, _ := sys.Run(ctx, plan, sti.Request{            // pipelined inference
//	    Task: sti.TaskClassify, Tokens: tokens, Mask: mask})
//
// The same Run surface decodes generatively (§3.4) from the very same
// shards:
//
//	resp, _ = sys.Run(ctx, plan, sti.Request{
//	    Task: sti.TaskGenerate, Tokens: prompt, MaxNewTokens: 8})
//
// Paper-scale experiments (every table and figure of the evaluation)
// are regenerated by cmd/sti-experiments and the benchmarks in
// bench_test.go.
package sti

import (
	"context"
	"time"

	"sti/internal/device"
	"sti/internal/glue"
	"sti/internal/importance"
	"sti/internal/model"
	"sti/internal/obs"
	"sti/internal/pipeline"
	"sti/internal/planner"
	"sti/internal/profiler"
	"sti/internal/replica"
	"sti/internal/serve"
	"sti/internal/store"
	"sti/internal/train"
)

// Core type aliases: the curated public surface over the internal
// packages.
type (
	// ModelConfig describes a transformer geometry (layers, heads,
	// hidden size, ...).
	ModelConfig = model.Config
	// Model is a full set of transformer weights.
	Model = model.Weights
	// Device is a calibrated hardware profile (compute + flash IO).
	Device = device.Profile
	// Plan is an executable submodel configuration produced by the
	// two-stage planner.
	Plan = planner.Plan
	// PlanRequest exposes every planner knob for advanced callers.
	PlanRequest = planner.Request
	// Manifest describes a preprocessed shard store.
	Manifest = store.Manifest
	// ExecStats reports what one pipelined execution did.
	ExecStats = pipeline.ExecStats
	// BatchInput is one sequence of a batched pipelined execution.
	BatchInput = pipeline.BatchInput
	// BatchStats reports what one batched execution did: the shared
	// IO/decompress stream's cost plus the batch size it served.
	BatchStats = pipeline.BatchStats
	// Task selects the inference workload of a Request: TaskClassify
	// or TaskGenerate.
	Task = pipeline.Task
	// Request is the unified task-typed inference request every layer
	// passes down: HTTP → scheduler → fleet → pipeline → model.
	Request = pipeline.Request
	// Response is the unified outcome of one Request: class logits for
	// classify, the decoded sequence plus GenStats for generate, and
	// the plan tier that served it.
	Response = pipeline.Response
	// TierInfo records which plan tier served a request: the tier's
	// latency target, the plan's fidelity score, whether it was a plan-
	// cache hit, and whether congestion downgraded the request.
	TierInfo = pipeline.TierInfo
	// GenStats reports what one generate execution did: the one-time
	// shard stream plus per-step decode costs.
	GenStats = pipeline.GenStats
	// StepLoopStats snapshots a continuous-batching step loop: batched
	// decode steps, in-flight/peak streams, best-effort preemptions and
	// the live paged KV bytes charged against the preload grant.
	StepLoopStats = pipeline.StepLoopStats
	// ImportanceTable holds per-shard importance scores.
	ImportanceTable = importance.Table
	// Dataset is a synthetic GLUE-like task with train/dev splits.
	Dataset = glue.Dataset
	// TrainOptions configures fine-tuning.
	TrainOptions = train.Options

	// ReplicaPoolStats is a point-in-time snapshot of one model's
	// replica pool: the replica count and per-replica served and
	// in-flight counters.
	ReplicaPoolStats = replica.PoolStats
	// ShardCacheStats reports a model's single-flight payload cache:
	// flash reads vs deduplicated hits and the bytes they saved.
	ShardCacheStats = store.CacheStats

	// Scheduler multiplexes concurrent inference requests across a
	// Fleet with per-model bounded queues, deadlines and worker pools.
	Scheduler = serve.Scheduler
	// ServeOptions tunes the scheduler (queue depth, workers per
	// model, deadline slack).
	ServeOptions = serve.Options
	// ServeStats is a point-in-time snapshot of scheduler metrics.
	ServeStats = serve.Stats
	// ServeResult is the outcome of one scheduled inference.
	ServeResult = serve.Result

	// ObsHub is a process's observability root: the metrics registry
	// behind /metrics and the per-model exemplar rings behind
	// /v1/debug/trace. Pass it to ServeOptions.Obs and
	// Fleet.SetObservability; a nil hub disables the whole subsystem,
	// tracing included.
	ObsHub = obs.Hub
	// ObsTrace is one request's span timeline; StartRequest attaches
	// one to the request context and every layer below records into it.
	ObsTrace = obs.Trace
	// ObsExemplar is one captured request timeline as served by
	// /v1/debug/trace.
	ObsExemplar = obs.Exemplar
)

// The fleet is what a scheduler serves: compile-time proof the public
// Fleet satisfies its backend contract.
var _ serve.Backend = (*Fleet)(nil)

// NewObsHub builds an observability hub with a fresh registry and
// exemplar rings of ringCap traces per model (<= 0 means the default
// 8). Scrape its registry at /metrics and feed request
// contexts through hub.StartRequest/FinishRequest.
func NewObsHub(ringCap int) *ObsHub { return obs.NewHub(ringCap) }

// Tasks a Request can carry, re-exported at the API surface.
const (
	// TaskClassify is the paper's workload: an encoder pass producing
	// class logits.
	TaskClassify = pipeline.TaskClassify
	// TaskGenerate is GPT-style greedy decoding over a causal submodel
	// assembled from the same elastic shards (§3.4 future work).
	TaskGenerate = pipeline.TaskGenerate
)

// Typed serving errors, re-exported for errors.Is at the API surface.
var (
	// ErrQueueFull reports load shedding at admission.
	ErrQueueFull = serve.ErrQueueFull
	// ErrDeadline reports a request whose deadline expired unserved.
	ErrDeadline = serve.ErrDeadline
	// ErrUnknownModel reports a request for an unmanaged model.
	ErrUnknownModel = serve.ErrUnknownModel
	// ErrServerClosed reports a submit to a closed scheduler.
	ErrServerClosed = serve.ErrClosed
	// ErrKVBudget reports a generate stream the KV budget cannot serve:
	// its grant holds no page, or the stream was shed to let others
	// decode.
	ErrKVBudget = pipeline.ErrKVBudget
	// ErrBatcherClosed reports a generate stream cut off because its
	// replica's step loop shut down (a retired or closing replica).
	ErrBatcherClosed = pipeline.ErrBatcherClosed
)

// NewScheduler starts a concurrent request scheduler over a fleet.
// Replan the fleet first so every model has a plan ladder; then Submit
// admits task-typed requests against deadlines derived from each
// request's own TargetLatency (or the model's default target), serves
// each from the tightest plan tier meeting its SLO, and downgrades
// best-effort and over-deadline requests to a coarser tier under
// congestion instead of shedding them. Close the scheduler before
// discarding the fleet.
func NewScheduler(f *Fleet, opts ServeOptions) *Scheduler {
	return serve.New(f, opts)
}

// Device profiles of the paper's platforms (Table 2).
func Odroid() *Device { return device.Odroid() }

// Jetson returns the Jetson Nano GPU profile.
func Jetson() *Device { return device.Jetson() }

// BERTBaseConfig returns the paper-scale geometry (12×12, d=768).
func BERTBaseConfig() ModelConfig { return model.BERTBase() }

// TinyConfig returns a geometry small enough to train in seconds.
func TinyConfig() ModelConfig { return model.Tiny() }

// NewRandomModel builds deterministic random weights for a geometry.
func NewRandomModel(cfg ModelConfig, seed int64) *Model {
	return model.NewRandom(cfg, seed)
}

// GenerateDataset builds a synthetic GLUE-like dataset ("SST-2",
// "RTE", "QNLI" or "QQP") sized for the model's vocabulary and
// sequence length.
func GenerateDataset(task string, cfg ModelConfig, trainN, devN int, seed int64) (*Dataset, error) {
	return glue.Generate(task, trainN, devN, cfg.Vocab, cfg.MaxSeq, seed)
}

// DefaultTrainOptions returns trainer settings that fit TinyConfig.
func DefaultTrainOptions() TrainOptions { return train.DefaultOptions() }

// TrainModel fine-tunes w on a generated dataset for the named task
// and returns (dataset, final dev accuracy).
func TrainModel(w *Model, task string, opts TrainOptions) (*Dataset, float64, error) {
	ds, err := GenerateDataset(task, w.Cfg, 512, 128, opts.Seed)
	if err != nil {
		return nil, 0, err
	}
	acc, err := train.Run(w, ds, opts)
	return ds, acc, err
}

// Preprocess shards, quantizes and persists a model into dir — STI's
// one-time per-model preprocessing (§3.2). A nil bitwidths slice uses
// the paper's K = 2..6.
func Preprocess(dir string, w *Model, bitwidths []int) (*Manifest, error) {
	return store.Preprocess(dir, w, bitwidths)
}

// InstallShard writes full-fidelity shard weights back into a model —
// the inverse of sharding, used to rebuild complete weights from a
// store.
func InstallShard(w *Model, layer, slice int, flat []float32) error {
	return w.InstallShard(layer, slice, flat)
}

// SaveImportance ships a profiled importance table with a store, and
// LoadImportance (on System) retrieves it.
func SaveImportance(dir string, tbl *ImportanceTable) error {
	return store.SaveImportance(dir, tbl)
}

// ProfileImportance runs the paper's shard-importance profiling (§5.2)
// of a real model on a real dev set.
func ProfileImportance(w *Model, ds *Dataset, lowBits, highBits int) *ImportanceTable {
	return profiler.ProfileImportance(w, ds, lowBits, highBits)
}

// MeasureDevice profiles the local host against a preprocessed store,
// the real-path analogue of the calibrated Odroid/Jetson models.
func MeasureDevice(dir string, seqLen int) (*Device, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return profiler.MeasureDevice(st, seqLen)
}

// System is a loaded model ready for planning and pipelined inference
// on a device.
type System struct {
	Store  *store.Store
	Engine *pipeline.Engine
	Device *Device

	// Imp guides slice selection and fidelity upgrades. Defaults to a
	// uniform table; replace with ProfileImportance output for real
	// models or importance.Synthetic for paper-scale studies.
	Imp *ImportanceTable

	// SeqLen is the padded input length plans assume (§5.2 fixes it to
	// a common length).
	SeqLen int
}

// Load opens a preprocessed store for inference on the given device.
// cacheBudget bounds the engine's preload buffer in bytes.
func Load(dir string, dev *Device, cacheBudget int64) (*System, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	eng, err := pipeline.NewEngine(st, cacheBudget)
	if err != nil {
		return nil, err
	}
	cfg := st.Man.Config
	sys := &System{
		Store: st, Engine: eng, Device: dev,
		Imp:    importance.NewTable(cfg.Layers, cfg.Heads),
		SeqLen: cfg.MaxSeq,
	}
	// Use the importance profile shipped with the store, if any.
	if tbl, err := st.LoadImportance(); err == nil && tbl != nil {
		sys.Imp = tbl
	}
	return sys, nil
}

// Request builds a fully-populated plan request for this system; mutate
// it for ablations before calling Plan.
func (s *System) Request(target time.Duration, preloadBudget int64) PlanRequest {
	req := planner.NewRequest(s.Device, s.Store.Man.Config, s.Imp,
		pipeline.ManifestSizer{Man: s.Store.Man}, target, preloadBudget)
	req.SeqLen = s.SeqLen
	req.Bitwidths = append([]int(nil), s.Store.Man.Bitwidths...)
	return req
}

// Plan runs the two-stage planner (§5) for a target latency and
// preload budget.
func (s *System) Plan(target time.Duration, preloadBudget int64) (*Plan, error) {
	return s.Request(target, preloadBudget).Plan()
}

// Warm fills the engine's preload buffer per the plan, so execution
// starts without stalling (§5.4.2).
func (s *System) Warm(p *Plan) error { return s.Engine.Warm(p) }

// Run executes one task-typed request against a plan — the system's
// primary entry point. TaskClassify runs the layer-pipelined encoder
// pass and returns class logits; TaskGenerate materializes a causal
// submodel from the plan's shard stream once, then greedily decodes
// through a paged KV cache, amortizing the elastic IO across every
// token and streaming each one through Request.OnToken.
//
// Generate decodes on a one-stream continuous batcher, so its KV pages
// are charged to the engine's preload grant exactly like a fleet
// stream's: they evict top-layer preload shards first, and a grant too
// small for one page fails with ErrKVBudget. OnToken runs on the
// stream's own goroutine; every token is delivered before Run returns.
// Cancelling ctx aborts the shard stream between layers and the decode
// within one step, returning the partial Response with ctx.Err().
func (s *System) Run(ctx context.Context, p *Plan, req Request) (*Response, error) {
	return s.Engine.Run(ctx, p, req)
}

// Retain applies the post-execution eviction policy (§5.5), keeping
// bottom-layer shards cached for back-to-back engagements (§3.3).
func (s *System) Retain(p *Plan) error { return s.Engine.Retain(p) }
