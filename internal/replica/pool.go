// Package replica implements per-model pools of pipeline engines — the
// layer between the fleet's budget arbitration and the paper's
// single-engagement execution machinery.
//
// STI plans one IO/compute pipeline per model (§3.2); a Pool runs n
// copies of it as replicas of one model, each with its own preload
// buffer carved from the model's byte grant (the §3.2 budget
// arbitration extended from per-tier to per-replica: a grant of B over
// n replicas gives each ⌊B/n⌋). Callers plan against that same slice,
// so every replica's buffer holds its plans' preload sets. Requests
// dispatch to the least-loaded replica; all replicas of a model stream
// shard payloads through one store.SharedCache, so n replicas
// executing the same plan cost ~1× flash IO, not n×.
//
// A pool's members are fixed by New: its owner picks the count once,
// before the first plan, and a pool is never resized.
//
// Concurrency contract: Acquire/Release/CacheBytes/Stats/GenStats are
// safe for concurrent use at any time. The mutating operations —
// Apply, Warm, Retire — re-split budgets and warm engines and must be
// externally serialized with each other and with executions on the
// pool's engines (the fleet runs them under its write lock, which
// quiesces serving).
package replica

import (
	"fmt"
	"sync"

	"sti/internal/pipeline"
	"sti/internal/planner"
)

// Replica is one pipeline engine of a pool plus its dispatch state.
// Every replica owns a continuous-batching step loop (Batcher) for
// generate traffic: acquired generate requests join the replica's loop
// and decode batched with its other streams, and the acquisition's
// inflight count makes least-loaded dispatch count live decodes.
type Replica struct {
	ID      int
	Engine  *pipeline.Engine
	Batcher *pipeline.Batcher

	// Guarded by the pool's mutex.
	inflight int
	served   uint64
}

// PoolStats is a point-in-time snapshot of a pool's replicas.
type PoolStats struct {
	Replicas int `json:"replicas"`
	// Served[i] counts requests completed by replica i.
	Served   []uint64 `json:"served"`
	Inflight []int    `json:"inflight"`
	// Budget is the model grant split across replicas; PerReplica the
	// slice each replica's preload buffer runs under.
	Budget     int64 `json:"budget"`
	PerReplica int64 `json:"per_replica"`
	CacheBytes int64 `json:"cache_bytes"`
	// KVBytes is the paged decode KV cache held live across replicas,
	// charged against the same per-replica grants as CacheBytes.
	KVBytes int64 `json:"kv_bytes"`
}

// Pool is a fixed-size set of replica engines for one model.
type Pool struct {
	replicas []*Replica // fixed by New

	mu     sync.Mutex
	budget int64 // model grant, split across the replicas
}

// New creates a pool of n replicas, replica i running factory(i)
// (engines should start with a zero budget; Apply grants bytes after
// planning).
func New(factory func(id int) *pipeline.Engine, n int) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("replica: pool of %d replicas; need at least one", n)
	}
	p := &Pool{replicas: make([]*Replica, n)}
	for i := range p.replicas {
		eng := factory(i)
		p.replicas[i] = &Replica{ID: i, Engine: eng, Batcher: pipeline.NewBatcher(eng, pipeline.BatcherOptions{})}
	}
	return p, nil
}

// Size returns the number of replicas.
func (p *Pool) Size() int { return len(p.replicas) }

// Acquire picks the least-loaded replica and marks one request in
// flight on it. Callers must Release it exactly once.
func (p *Pool) Acquire() *Replica {
	p.mu.Lock()
	best := p.replicas[0]
	for _, r := range p.replicas[1:] {
		if r.inflight < best.inflight {
			best = r
		}
	}
	best.inflight++
	p.mu.Unlock()
	return best
}

// Release returns a replica after served completed requests rode the
// acquisition (0 for a failed execution; a batch counts each member).
func (p *Pool) Release(r *Replica, served int) {
	p.mu.Lock()
	r.inflight--
	r.served += uint64(served)
	p.mu.Unlock()
}

// Apply re-arbitrates the model grant across the replicas and
// warms every replica's preload buffer with the given plan set: each
// replica's budget becomes ⌊budget/n⌋ and its buffer the bottom-up
// union of the plans' preload sets that fits it. Part of the mutating
// API — callers serialize it with executions.
func (p *Pool) Apply(budget int64, plans []*planner.Plan) error {
	p.mu.Lock()
	p.budget = budget
	p.mu.Unlock()
	return p.warmAll(budget, plans)
}

// Warm re-warms every replica with a new plan set under the
// already-granted budget (e.g. after an on-demand tier joined the
// ladder). Part of the mutating API.
func (p *Pool) Warm(plans []*planner.Plan) error {
	p.mu.Lock()
	budget := p.budget
	p.mu.Unlock()
	return p.warmAll(budget, plans)
}

// PerReplica is the §3.2 grant arbitration extended one level down: a
// model grant of budget over n replicas gives each ⌊budget/n⌋ (0 for
// n < 1 — no replicas, no bytes). The pool splits over its count, and
// the fleet plans against the same split.
func PerReplica(budget int64, n int) int64 {
	if n <= 0 {
		return 0
	}
	return budget / int64(n)
}

func (p *Pool) warmAll(budget int64, plans []*planner.Plan) error {
	per := PerReplica(budget, len(p.replicas))
	for _, r := range p.replicas {
		r.Engine.SetCacheBudget(per)
		if err := r.Engine.WarmSet(plans); err != nil {
			return fmt.Errorf("replica: warming replica %d: %w", r.ID, err)
		}
	}
	return nil
}

// Retire zeroes every replica's budget, releasing all preload bytes —
// the pool's shutdown when its model leaves the fleet. Part of the
// mutating API.
func (p *Pool) Retire() {
	p.mu.Lock()
	p.budget = 0
	p.mu.Unlock()
	for _, r := range p.replicas {
		r.Batcher.Close()
		r.Engine.SetCacheBudget(0)
	}
}

// CacheBytes sums the preload bytes currently held across all
// replicas.
func (p *Pool) CacheBytes() int64 {
	var total int64
	for _, r := range p.replicas {
		total += r.Engine.CacheBytes()
	}
	return total
}

// Stats snapshots the pool.
func (p *Pool) Stats() PoolStats {
	st := PoolStats{
		Replicas: len(p.replicas),
		Served:   make([]uint64, len(p.replicas)),
		Inflight: make([]int, len(p.replicas)),
	}
	p.mu.Lock()
	st.Budget = p.budget
	for i, r := range p.replicas {
		st.Served[i] = r.served
		st.Inflight[i] = r.inflight
	}
	p.mu.Unlock()
	st.PerReplica = PerReplica(st.Budget, st.Replicas)
	for _, r := range p.replicas {
		st.CacheBytes += r.Engine.CacheBytes()
		st.KVBytes += r.Engine.KVBytes()
	}
	return st
}

// GenStats aggregates every replica's continuous-batching step loop
// into one pool-level snapshot: counters sum; MaxStreams is the pool's
// total admission capacity; PeakStreams sums per-replica peaks (an
// upper bound on the pool-wide instantaneous peak).
func (p *Pool) GenStats() pipeline.StepLoopStats {
	var agg pipeline.StepLoopStats
	for _, r := range p.replicas {
		st := r.Batcher.Stats()
		agg.Steps += st.Steps
		agg.StepSequences += st.StepSequences
		agg.Streams += st.Streams
		agg.PeakStreams += st.PeakStreams
		agg.Pending += st.Pending
		agg.MaxStreams += st.MaxStreams
		agg.Admitted += st.Admitted
		agg.Finished += st.Finished
		agg.Cancelled += st.Cancelled
		agg.Preempted += st.Preempted
		agg.RecomputedTokens += st.RecomputedTokens
		agg.TokensOut += st.TokensOut
		agg.KVBytes += st.KVBytes
	}
	if agg.Steps > 0 {
		agg.AvgStreamsPerStep = float64(agg.StepSequences) / float64(agg.Steps)
	}
	return agg
}
