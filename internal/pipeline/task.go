package pipeline

import (
	"fmt"
	"time"
)

// Task selects which inference workload a Request drives through the
// engine. STI's machinery (§3) is task-agnostic — it streams
// resource-elastic shards under a latency target — so the same plan,
// preload buffer and IO/decompress stream serve both tasks; only the
// attention mask and the output head differ.
type Task int

const (
	// TaskClassify is the paper's workload: a BERT-style encoder pass
	// producing class logits from the CLS pooler head.
	TaskClassify Task = iota
	// TaskGenerate is §3.4's declared future work: GPT-style greedy
	// decoding over a causal submodel assembled from the very same
	// shards, with the weight-tied language-model head.
	TaskGenerate
)

func (t Task) String() string {
	switch t {
	case TaskClassify:
		return "classify"
	case TaskGenerate:
		return "generate"
	default:
		return fmt.Sprintf("task(%d)", int(t))
	}
}

// Request is the unified inference request every layer of the system
// passes down: HTTP → scheduler → fleet → pipeline → model. Tokens and
// Mask describe the input sequence for both tasks (Mask is ignored by
// generation, whose attention is causal).
type Request struct {
	Task   Task
	Tokens []int
	Mask   []bool // classify: valid positions, nil or empty = all valid

	// MaxNewTokens bounds greedy decoding for TaskGenerate (the decode
	// also stops at the model's MaxSeq). Must be >= 0; ignored by
	// TaskClassify.
	MaxNewTokens int

	// TargetLatency is this request's own SLO: serving layers resolve
	// it to the tightest cached plan tier that meets it, so interactive
	// and batch callers of the same model ride different
	// fidelity/latency points. Zero means the model's default target.
	// Must be >= 0. The pipeline itself executes whatever plan it is
	// handed; resolution happens above it.
	TargetLatency time.Duration

	// Priority is admission-control advice for schedulers: requests
	// with Priority < 0 are best-effort and are demoted to a coarser
	// plan tier (or shed) earlier under load. The pipeline itself
	// ignores it.
	Priority int

	// Downgraded marks a request a congestion-aware scheduler has
	// demoted: tier resolution serves it one rung coarser down the
	// already-cached plan ladder instead of shedding it, and the tier
	// record in the Response carries the flag so callers can see the
	// degraded fidelity. The pipeline itself ignores it.
	Downgraded bool

	// OnToken, when non-nil, is called in order after each generated
	// token (step counts from 0), from the stream's own emitter
	// goroutine; every call returns before the request's result is
	// delivered. It is how serving layers stream tokens to clients
	// before the request completes. Ignored by TaskClassify.
	OnToken func(step, token int)
}

// Validate rejects requests no engine could execute.
func (r Request) Validate() error {
	if r.TargetLatency < 0 {
		return fmt.Errorf("pipeline: negative TargetLatency %v", r.TargetLatency)
	}
	switch r.Task {
	case TaskClassify:
		if len(r.Tokens) == 0 {
			return fmt.Errorf("pipeline: classify request has no tokens")
		}
		if len(r.Mask) != 0 && len(r.Mask) != len(r.Tokens) {
			return fmt.Errorf("pipeline: mask length %d != token length %d", len(r.Mask), len(r.Tokens))
		}
	case TaskGenerate:
		if len(r.Tokens) == 0 {
			return fmt.Errorf("pipeline: generate request has empty prompt")
		}
		if r.MaxNewTokens < 0 {
			return fmt.Errorf("pipeline: negative MaxNewTokens %d", r.MaxNewTokens)
		}
	default:
		return fmt.Errorf("pipeline: unknown task %v", r.Task)
	}
	return nil
}

// GenStats reports what one generate execution did: the one-time
// elastic shard stream that materialized the causal submodel, plus the
// per-step decode costs it amortizes.
type GenStats struct {
	// Stream is the cost of the single IO/decompress pass that
	// assembled the submodel — incurred once no matter how many tokens
	// are decoded, so each token's amortized IO is
	// Stream.BytesRead/(PromptTokens+NewTokens).
	Stream ExecStats

	PromptTokens int // prompt tokens consumed through the KV cache
	NewTokens    int // tokens actually generated (≤ MaxNewTokens)

	// StepCompute is the wall time of each decode step (prompt steps
	// first, then generated steps).
	StepCompute []time.Duration

	Total time.Duration
}

// TierInfo identifies the plan tier that served a request — how the
// serving layer resolved the request's TargetLatency against the
// model's plan ladder.
type TierInfo struct {
	// Target is the tier's planned latency target (≤ the request's
	// effective target: the tightest cached tier that meets the SLO).
	Target time.Duration `json:"target_ns"`
	// Fidelity is the served plan's fidelity score in (0, 1]: the
	// fraction of the full model's weight bits the submodel executes.
	Fidelity float64 `json:"fidelity"`
	// CacheHit reports whether the tier came from the plan cache;
	// false means it was planned (and warmed) on demand for this SLO.
	CacheHit bool `json:"cache_hit"`
	// Downgraded reports that congestion demoted the request to a
	// coarser tier than its SLO asked for — served degraded, not shed.
	Downgraded bool `json:"downgraded"`
}

// Response is the unified outcome of one Request.
type Response struct {
	// Logits are class logits for TaskClassify, and the language-model
	// logits of the final decode step for TaskGenerate (nil when the
	// decode was cut short by cancellation).
	Logits []float32

	// GeneratedTokens is the full decoded sequence (prompt + new
	// tokens) for TaskGenerate; nil for TaskClassify.
	GeneratedTokens []int

	// Stats describes the execution stream that served the request.
	// For TaskGenerate it aliases &Gen.Stream.
	Stats *ExecStats

	// Gen holds per-step decoding stats; non-nil only for TaskGenerate.
	Gen *GenStats

	// Tier records the plan tier that served the request. Nil when the
	// caller executed an explicit plan (System.Run) rather than
	// resolving an SLO through a fleet's plan ladder.
	Tier *TierInfo
}
