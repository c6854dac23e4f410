// Package replica implements per-model pools of pipeline engines — the
// layer between the fleet's budget arbitration and the paper's
// single-engagement execution machinery.
//
// STI plans one IO/compute pipeline per model (§3.2); a Pool runs n
// copies of it as replicas of one model, each with its own preload
// buffer carved from the model's byte grant (the §3.2 budget
// arbitration extended from per-tier to per-replica: a grant of B over
// n replicas gives each ⌊B/n⌋). Callers plan against that same slice,
// so every replica's buffer holds its plans' preload sets and no live
// replica's buffer is ever smaller than the plan's slice. Requests
// dispatch to the least-loaded replica; all replicas of a model stream
// shard payloads through one store.SharedCache, so n replicas
// executing the same plan cost ~1× flash IO, not n×.
//
// The pool holds the count its owner gives it: New builds one set of
// replicas and only ScaleTo changes it. A resize changes the pool's
// members and re-warms every live buffer under the new split.
// Scale-down retires a replica gracefully — it stops receiving new
// work, its in-flight requests finish (bounded wait, never shed), and
// only then are its preload bytes reclaimed and re-granted to the
// survivors.
//
// Concurrency contract: Acquire/Release/CacheBytes/Stats are safe for
// concurrent use at any time. The mutating operations — Apply, Warm,
// ScaleTo, Retire — re-split budgets and warm engines and must be
// externally serialized with each other and with executions on the
// pool's engines (the fleet runs them under its write lock, which
// quiesces serving).
package replica

import (
	"fmt"
	"sync"
	"time"

	"sti/internal/pipeline"
	"sti/internal/planner"
)

// Replica is one pipeline engine of a pool plus its dispatch state.
// Every replica owns a continuous-batching step loop (Batcher) for
// generate traffic: acquired generate requests join the replica's loop
// and decode batched with its other streams, while the acquisition's
// inflight count keeps the drain protocol honest — a draining replica
// waits for its streams like any other in-flight work.
type Replica struct {
	ID      int
	Engine  *pipeline.Engine
	Batcher *pipeline.Batcher

	// Guarded by the pool's mutex.
	inflight int
	served   uint64
	draining bool
}

// drainWait bounds how long a scale-down waits for a retiring
// replica's in-flight requests. On timeout the retirement is aborted
// (the replica returns to service): in-flight work is never shed.
const drainWait = 5 * time.Second

// PoolStats is a point-in-time snapshot of a pool's replicas.
type PoolStats struct {
	Replicas int   `json:"replicas"`
	Draining int   `json:"draining"`
	IDs      []int `json:"ids"`
	// Served[i] counts requests completed by replica IDs[i].
	Served   []uint64 `json:"served"`
	Inflight []int    `json:"inflight"`
	// Budget is the model grant split across replicas; PerReplica the
	// slice each live replica's preload buffer runs under.
	Budget     int64 `json:"budget"`
	PerReplica int64 `json:"per_replica"`
	CacheBytes int64 `json:"cache_bytes"`
	// KVBytes is the paged decode KV cache held live across replicas,
	// charged against the same per-replica grants as CacheBytes.
	KVBytes int64 `json:"kv_bytes"`
	// ScaleUps and ScaleDowns count ScaleTo calls that grew or shrank
	// the pool.
	ScaleUps   uint64 `json:"scale_ups"`
	ScaleDowns uint64 `json:"scale_downs"`
}

// Pool is a fixed-size set of replica engines for one model.
type Pool struct {
	factory func(id int) (*pipeline.Engine, error)
	// drainWait is the package constant; tests shorten it.
	drainWait time.Duration

	mu       sync.Mutex
	cond     *sync.Cond // signalled on Release, for drain waits
	replicas []*Replica
	nextID   int
	budget   int64           // model grant, split across live replicas
	plans    []*planner.Plan // current warm set (ladder + on-demand tiers)

	scaleUps   uint64
	scaleDowns uint64
}

// New creates a pool of n replicas built by factory (engines should
// start with a zero budget; Apply grants bytes after planning). The
// factory is retained for ScaleTo.
func New(factory func(id int) (*pipeline.Engine, error), n int) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("replica: pool of %d replicas; need at least one", n)
	}
	p := &Pool{factory: factory, drainWait: drainWait}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		if err := p.spawnLocked(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// spawnLocked builds one replica and appends it. p.mu need not be held
// during New (no concurrency yet); ScaleTo calls it with mu held only
// for the slice append.
func (p *Pool) spawnLocked() error {
	eng, err := p.factory(p.nextID)
	if err != nil {
		return fmt.Errorf("replica: building replica %d: %w", p.nextID, err)
	}
	b := pipeline.NewBatcher(eng, pipeline.BatcherOptions{})
	p.replicas = append(p.replicas, &Replica{ID: p.nextID, Engine: eng, Batcher: b})
	p.nextID++
	return nil
}

// Size returns the number of live (non-draining) replicas.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.liveLocked()
}

func (p *Pool) liveLocked() int {
	n := 0
	for _, r := range p.replicas {
		if !r.draining {
			n++
		}
	}
	return n
}

// Acquire picks the least-loaded live replica and marks one request in
// flight on it. Callers must Release it exactly once.
func (p *Pool) Acquire() (*Replica, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *Replica
	for _, r := range p.replicas {
		if r.draining {
			continue
		}
		if best == nil || r.inflight < best.inflight {
			best = r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("replica: pool has no live replicas")
	}
	best.inflight++
	return best, nil
}

// Release returns a replica after served completed requests rode the
// acquisition (0 for a failed execution; a batch counts each member).
func (p *Pool) Release(r *Replica, served int) {
	p.mu.Lock()
	r.inflight--
	if served > 0 {
		r.served += uint64(served)
	}
	p.mu.Unlock()
	p.cond.Broadcast() // wake any drain waiting on this replica
}

// Apply re-arbitrates the model grant across the live replicas and
// warms every replica's preload buffer with the given plan set: each
// replica's budget becomes ⌊budget/n⌋ and its buffer the bottom-up
// union of the plans' preload sets that fits it. Part of the mutating
// API — callers serialize it with executions.
func (p *Pool) Apply(budget int64, plans []*planner.Plan) error {
	p.mu.Lock()
	p.budget = budget
	p.plans = plans
	live := p.liveReplicasLocked()
	p.mu.Unlock()
	return warmAll(live, PerReplica(budget, len(live)), plans)
}

// Warm re-warms every live replica with a new plan set under the
// already-granted budget (e.g. after an on-demand tier joined the
// ladder). Part of the mutating API.
func (p *Pool) Warm(plans []*planner.Plan) error {
	p.mu.Lock()
	budget := p.budget
	p.plans = plans
	live := p.liveReplicasLocked()
	p.mu.Unlock()
	return warmAll(live, PerReplica(budget, len(live)), plans)
}

func (p *Pool) liveReplicasLocked() []*Replica {
	live := make([]*Replica, 0, len(p.replicas))
	for _, r := range p.replicas {
		if !r.draining {
			live = append(live, r)
		}
	}
	return live
}

// PerReplica is the §3.2 grant arbitration extended one level down: a
// model grant of budget over n replicas gives each ⌊budget/n⌋ (0 for
// an empty pool — no replicas, no bytes). The pool splits over its
// live count, and the fleet plans against the same split.
func PerReplica(budget int64, n int) int64 {
	if n <= 0 {
		return 0
	}
	return budget / int64(n)
}

func warmAll(live []*Replica, per int64, plans []*planner.Plan) error {
	for _, r := range live {
		r.Engine.SetCacheBudget(per)
		if err := r.Engine.WarmSet(plans); err != nil {
			return fmt.Errorf("replica: warming replica %d: %w", r.ID, err)
		}
	}
	return nil
}

// ScaleTo grows or shrinks the pool to n live replicas (at least one)
// and re-warms every live replica with the current plan set under the
// grant split across the new count. Growth spawns the
// new replicas (a failed spawn unwinds the ones already spawned);
// shrinkage retires the youngest replicas gracefully — each stops
// receiving new work, its in-flight requests finish (bounded by
// drainWait; on timeout the retirement aborts and the replica returns
// to service), and only then are its preload bytes reclaimed. Part of
// the mutating API.
func (p *Pool) ScaleTo(n int) error {
	p.mu.Lock()
	n = max(n, 1)
	cur := p.liveLocked()
	var victims []*Replica
	switch {
	case n == cur:
		p.mu.Unlock()
		return nil
	case n > cur:
		before := len(p.replicas)
		for ; cur < n; cur++ {
			if err := p.spawnLocked(); err != nil {
				// Unwind the replicas this call already spawned: a
				// failed growth must leave the pool exactly as it was,
				// never holding live but budget-less, never-warmed
				// engines that Acquire would dispatch to.
				spawned := append([]*Replica(nil), p.replicas[before:]...)
				p.replicas = p.replicas[:before]
				p.mu.Unlock()
				for _, r := range spawned {
					r.Batcher.Close()
				}
				return err
			}
		}
		p.scaleUps++
	default:
		victims = p.markDrainingLocked(cur - n)
		if err := p.awaitDrainLocked(victims); err != nil {
			p.mu.Unlock()
			return err
		}
		p.removeLocked(victims)
		p.scaleDowns++
	}
	budget, plans := p.budget, p.plans
	p.mu.Unlock()
	// Reclaim the retirees' bytes before the survivors regrow. The drain
	// above waited out every in-flight acquisition — generate streams
	// hold theirs until their terminal result — so each victim's step
	// loop is idle and Close is immediate.
	for _, v := range victims {
		v.Batcher.Close()
		v.Engine.SetCacheBudget(0)
	}
	return p.Apply(budget, plans)
}

// markDrainingLocked excludes the k youngest live replicas from
// dispatch and returns them.
func (p *Pool) markDrainingLocked(k int) []*Replica {
	var victims []*Replica
	for i := len(p.replicas) - 1; i >= 0 && len(victims) < k; i-- {
		if !p.replicas[i].draining {
			p.replicas[i].draining = true
			victims = append(victims, p.replicas[i])
		}
	}
	return victims
}

// awaitDrainLocked waits (bounded by drainWait) for every victim's
// in-flight work to finish. On timeout the victims are un-drained and
// an error returned: a retirement never sheds running requests.
//
// The deadline is enforced by a periodic broadcaster, not a one-shot
// timer: a single wakeup can fire in the window where this goroutine
// holds the lock between its deadline check and cond.Wait — lost, with
// no later Release to rescue the wait — whereas a periodic one always
// re-delivers.
func (p *Pool) awaitDrainLocked(victims []*Replica) error {
	busyCount := func() int {
		busy := 0
		for _, v := range victims {
			busy += v.inflight
		}
		return busy
	}
	// Fast path: under the fleet's write lock no replica ever has work
	// in flight, so every fleet-driven drain completes here without
	// spawning the waker.
	if busyCount() == 0 {
		return nil
	}
	deadline := time.Now().Add(p.drainWait)
	stopWake := make(chan struct{})
	defer close(stopWake)
	interval := p.drainWait / 10
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stopWake:
				return
			case <-tick.C:
				p.cond.Broadcast()
			}
		}
	}()
	for {
		busy := busyCount()
		if busy == 0 {
			return nil
		}
		if !time.Now().Before(deadline) {
			for _, v := range victims {
				v.draining = false
			}
			return fmt.Errorf("replica: %d request(s) still in flight after %v drain wait; retirement aborted",
				busy, p.drainWait)
		}
		//sti:ctxok bounded park: the ticker goroutine above broadcasts every interval and the drainWait deadline aborts the wait
		p.cond.Wait()
	}
}

func (p *Pool) removeLocked(victims []*Replica) {
	dead := make(map[*Replica]bool, len(victims))
	for _, v := range victims {
		dead[v] = true
	}
	kept := p.replicas[:0]
	for _, r := range p.replicas {
		if !dead[r] {
			kept = append(kept, r)
		}
	}
	p.replicas = kept
}

// Retire zeroes every replica's budget, releasing all preload bytes —
// the pool's shutdown when its model leaves the fleet. Part of the
// mutating API.
func (p *Pool) Retire() {
	p.mu.Lock()
	replicas := append([]*Replica(nil), p.replicas...)
	p.budget = 0
	p.plans = nil
	p.mu.Unlock()
	for _, r := range replicas {
		r.Batcher.Close()
		r.Engine.SetCacheBudget(0)
	}
}

// CacheBytes sums the preload bytes currently held across all
// replicas (draining ones included — their bytes are reclaimed only
// when retirement completes).
func (p *Pool) CacheBytes() int64 {
	p.mu.Lock()
	replicas := append([]*Replica(nil), p.replicas...)
	p.mu.Unlock()
	var total int64
	for _, r := range replicas {
		total += r.Engine.CacheBytes()
	}
	return total
}

// Stats snapshots the pool.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	st := PoolStats{
		Budget:   p.budget,
		ScaleUps: p.scaleUps, ScaleDowns: p.scaleDowns,
	}
	replicas := append([]*Replica(nil), p.replicas...)
	for _, r := range replicas {
		st.IDs = append(st.IDs, r.ID)
		st.Served = append(st.Served, r.served)
		st.Inflight = append(st.Inflight, r.inflight)
		if r.draining {
			st.Draining++
		} else {
			st.Replicas++
		}
	}
	st.PerReplica = PerReplica(p.budget, st.Replicas)
	p.mu.Unlock()
	for _, r := range replicas {
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
	p.mu.Lock()
	replicas := append([]*Replica(nil), p.replicas...)
	p.mu.Unlock()
	var agg pipeline.StepLoopStats
	for _, r := range replicas {
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
