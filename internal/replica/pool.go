// Package replica implements per-model pools of pipeline engines — the
// layer between the fleet's budget arbitration and the paper's
// single-engagement execution machinery.
//
// STI plans one IO/compute pipeline per model (§3.2); a Pool runs n
// copies of it as replicas of one model. The replicas share the
// model's one preload buffer (pipeline.NewReplica), held under the
// model's whole grant, so a payload is read in and charged once
// however many replicas execute it. Callers plan every tier against
// PerReplica(grant, n), so replicated output stays byte-identical to
// one engine planned under that slice. Requests dispatch to the
// least-loaded replica; all replicas of a model stream shard payloads
// through one store.SharedCache, so n replicas executing the same plan
// cost ~1× flash IO, not n×.
//
// A pool's members are fixed by New: its owner picks the count once,
// before the first plan, and a pool is never resized. The pool holds
// only those members, their dispatch counts and their batchers; the
// buffer belongs to the model's engines, and its owner warms and
// budgets it.
//
// Concurrency contract: Acquire/Release/Stats/GenStats are safe for
// concurrent use at any time. Retire must be externally serialized
// with executions on the pool's engines (the fleet runs it under its
// write lock, which quiesces serving).
package replica

import (
	"fmt"
	"sync"

	"sti/internal/pipeline"
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
}

// Pool is a fixed-size set of replica engines for one model.
type Pool struct {
	replicas []*Replica // fixed by New
	mu       sync.Mutex // guards every replica's inflight and served
}

// New creates a pool of n replicas, replica i running factory(i).
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

// PerReplica is the slice of a model grant of budget that each of n
// replicas plans against: ⌊budget/n⌋ (0 for n < 1 — no replicas, no
// bytes). The replicas share one buffer under the whole grant, so a
// plan made against the slice always fits.
func PerReplica(budget int64, n int) int64 {
	if n <= 0 {
		return 0
	}
	return budget / int64(n)
}

// Retire stops every replica's step loop — the pool's shutdown when
// its model leaves the fleet or its count is replaced before the
// first plan. The preload buffer is left to its owner. Part of the
// mutating API.
func (p *Pool) Retire() {
	for _, r := range p.replicas {
		r.Batcher.Close()
	}
}

// Stats snapshots the pool.
func (p *Pool) Stats() PoolStats {
	st := PoolStats{
		Replicas: len(p.replicas),
		Served:   make([]uint64, len(p.replicas)),
		Inflight: make([]int, len(p.replicas)),
	}
	p.mu.Lock()
	for i, r := range p.replicas {
		st.Served[i] = r.served
		st.Inflight[i] = r.inflight
	}
	p.mu.Unlock()
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
