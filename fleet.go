package sti

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"sti/internal/pipeline"
	"sti/internal/planner"
	"sti/internal/replica"
	"sti/internal/store"
)

// Fleet manages several expected models at once — the paper's
// multi-model setting (§2.1: co-running apps invoke separate fine-tuned
// instances per task; §3.2: "For each expected model, STI plans a
// separate execution pipeline with separate preload model shards").
//
// The fleet owns one total preload-memory budget and splits it across
// models in proportion to their expected engagement weights, replanning
// each model's pipeline whenever the budget or membership changes —
// exactly the replanning rule of §3.2 (only T or |S| changes require
// replanning).
//
// Each managed model is served by a pool of N replica engines
// (internal/replica), N set by SetReplicas before the model's first
// plan (default 1) and fixed from then on, with least-loaded dispatch.
// The replicas share the model's one preload buffer, held under the
// model's whole grant and warmed once per replan, so each payload is
// charged once. Every tier is planned against one slice (Budget/N), so
// a request's output never depends on which replica serves it. All
// replicas of a model stream shard payloads through one single-flight
// cache (store.SharedCache), so concurrent replicas executing the same
// plan cost ~1× flash IO.
//
// A Fleet is safe for concurrent use: Serve calls run in parallel
// (including on the same model), while Add, Remove, SetBudget and
// Replan take exclusive ownership — an in-flight replan quiesces
// inference so a plan is never swapped out from under an execution.
type Fleet struct {
	mu      sync.RWMutex
	budget  int64
	entries map[string]*FleetEntry
}

// PlanTier is one rung of a model's plan ladder: an executable plan at
// a graduated latency target. Tiers ascend by target; a larger target
// buys a higher-fidelity plan.
type PlanTier struct {
	Target time.Duration
	Plan   *Plan
}

// FleetEntry is one managed model with its planning inputs and current
// plan ladder. The snapshot returned by Entry is immutable; the
// fleet's live entry is updated by Replan.
type FleetEntry struct {
	System *System
	Target time.Duration // default latency target (requests with TargetLatency 0)
	Weight float64       // expected engagement share (relative)

	Budget int64 // preload bytes granted to this model by the last Replan
	// Plan is the default tier's plan — what a request with no
	// TargetLatency of its own is served by.
	Plan *Plan
	// Tiers snapshots the entry's plan ladder (pinned graduated tiers
	// plus any tiers planned on demand for off-ladder SLOs), ascending
	// by target. Populated on Entry snapshots only.
	Tiers []PlanTier
	// Replicas is the model's replica count. Populated on Entry
	// snapshots only.
	Replicas int

	// cache is the live tier ladder: pinned graduated targets rebuilt
	// by every replan plus an LRU-bounded set of on-demand tiers.
	cache *planner.PlanCache

	// pool is the model's replica set: SetReplicas' count of pipeline
	// engines with least-loaded dispatch. Replica 0 is System.Engine;
	// the others are its replicas and share its preload buffer, which
	// the fleet budgets and warms through System.Engine alone.
	// SetReplicas replaces the pool until the first plan; from then on
	// it is never reassigned.
	pool *replica.Pool
	// shared is the model's single-flight payload cache — every replica
	// streams shards through it, so K replicas executing the same plan
	// cost ~1× flash IO.
	shared *store.SharedCache
}

// tierCacheLimit bounds how many on-demand (off-ladder) plan tiers one
// model may cache beyond its pinned ladder.
const tierCacheLimit = 8

// sharedRetainBytes bounds each model's single-flight payload cache:
// beyond coalescing truly concurrent reads, completed payloads are
// retained LRU up to this many bytes so replicas whose layer streams
// run a few layers apart still dedupe their flash IO.
const sharedRetainBytes = 1 << 20

// NewFleet creates a fleet with a total preload budget in bytes.
func NewFleet(totalPreloadBudget int64) *Fleet {
	return &Fleet{budget: totalPreloadBudget, entries: make(map[string]*FleetEntry)}
}

// Add registers a model under a name. target is the model's *default*
// latency target — the tier requests ride when they carry no
// TargetLatency of their own; per-request SLOs resolve against a
// ladder of plans at graduated targets around it. Weight must be
// positive; call Replan afterwards to allocate budgets and build the
// ladders.
func (f *Fleet) Add(name string, sys *System, target time.Duration, weight float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.entries[name]; ok {
		return fmt.Errorf("sti: fleet already has model %q", name)
	}
	if weight <= 0 {
		return fmt.Errorf("sti: non-positive weight %v for %q", weight, name)
	}
	shared := store.NewSharedCache(sys.Store, sharedRetainBytes)
	sys.Engine.SetPayloadSource(shared)
	pool, err := newPool(sys, 1)
	if err != nil {
		return fmt.Errorf("sti: building replica pool for %q: %w", name, err)
	}
	f.entries[name] = &FleetEntry{
		System: sys, Target: target, Weight: weight,
		cache:  planner.NewPlanCache(tierCacheLimit),
		pool:   pool,
		shared: shared,
	}
	return nil
}

// newPool builds a model's pool of n replicas. Replica 0 is the
// system's own engine; later replicas share its resident weights, its
// payload source (the single-flight cache) and its preload buffer.
func newPool(sys *System, n int) (*replica.Pool, error) {
	return replica.New(func(id int) *pipeline.Engine {
		if id == 0 {
			return sys.Engine
		}
		return pipeline.NewReplica(sys.Engine)
	}, n)
}

// SetReplicas sets a model's replica count: n engines serve the model
// from its one preload buffer, and every tier is planned against
// Budget/n. The count is a setting of a model that has not been
// planned yet: call it between Add and the first Replan. On a planned
// model it returns an error and changes nothing.
func (f *Fleet) SetReplicas(name string, n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[name]
	if !ok {
		return fmt.Errorf("sti: fleet has no model %q", name)
	}
	if e.Plan != nil {
		return fmt.Errorf("sti: SetReplicas(%q, %d): the model is planned; its replica count is fixed", name, n)
	}
	pool, err := newPool(e.System, n)
	if err != nil {
		return fmt.Errorf("sti: SetReplicas(%q, %d): %w", name, n, err)
	}
	// entryForServe refuses every request to an unplanned model, so no
	// acquisition holds the old pool and its step loops stop at once.
	//sti:lockok quiesce-and-swap: both pools drive System.Engine as replica 0, so the old pool's step loops must exit before the new pool's batchers serve it; an unplanned model has no streams, so they exit at once
	e.pool.Retire()
	e.pool = pool
	return nil
}

// SetSharedCacheRetain bounds a model's single-flight payload cache:
// beyond coalescing concurrent reads it retains up to bytes of
// completed payloads (LRU) as the cross-replica dedup window. 0 keeps
// pure single-flight coalescing only. The default is sharedRetainBytes
// (1 MiB) per model — dedup memory distinct from (and reported
// separately to) the preload budget, via ShardCacheStats.RetainedBytes.
func (f *Fleet) SetSharedCacheRetain(name string, bytes int64) error {
	f.mu.RLock()
	e, ok := f.entries[name]
	f.mu.RUnlock()
	if !ok {
		return fmt.Errorf("sti: fleet has no model %q", name)
	}
	e.shared.SetRetain(bytes)
	return nil
}

// SetPeerFetch installs (or, with nil, removes) the peer level on one
// model's shared cache: a demand miss consults fn — wired by
// internal/cluster to the peers holding the model — before touching
// flash. The fetch runs inside the cache's single flight, outside
// every fleet and cache lock.
func (f *Fleet) SetPeerFetch(name string, fn store.PeerFetch) error {
	f.mu.RLock()
	e, ok := f.entries[name]
	f.mu.RUnlock()
	if !ok {
		return fmt.Errorf("sti: fleet has no model %q", name)
	}
	e.shared.SetPeerFetch(fn)
	return nil
}

// PeekShardPayload reports a shard payload retained in one model's
// shared cache without any flash IO or retention churn — the donor
// side of the cluster peer-cache level. ok is false when the model is
// unknown or the payload is not currently retained.
func (f *Fleet) PeekShardPayload(name string, layer, slice, bits int) ([]byte, bool) {
	f.mu.RLock()
	e, ok := f.entries[name]
	f.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.shared.Peek(layer, slice, bits)
}

// ReplicaStats snapshots a model's replica pool.
func (f *Fleet) ReplicaStats(name string) (replica.PoolStats, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.entries[name]
	if !ok {
		return replica.PoolStats{}, false
	}
	return e.pool.Stats(), true
}

// SharedCacheStats snapshots a model's single-flight payload cache.
func (f *Fleet) SharedCacheStats(name string) (store.CacheStats, bool) {
	f.mu.RLock()
	e, ok := f.entries[name]
	f.mu.RUnlock()
	if !ok {
		return store.CacheStats{}, false
	}
	return e.shared.Stats(), true
}

// Remove drops a model and immediately rebalances the fleet: the
// removed model's preload buffer, shared by all its replicas, releases
// every byte it held (its budget drops to zero), and the survivors are
// replanned under their regrown shares — so PreloadBytes reflects the
// new grants the moment Remove returns, instead of leaving sibling
// grants stale and the removed engine's shards warm until someone
// happens to call Replan. Removing an unknown name is a no-op.
func (f *Fleet) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[name]
	if !ok {
		return nil
	}
	delete(f.entries, name)
	//sti:lockok quiesce-and-swap: the removed pool must finish draining before survivors are replanned under regrown grants
	e.pool.Retire()
	e.System.Engine.SetCacheBudget(0)
	e.shared.Drop() // retained dedup payloads go with the model
	//sti:lockok quiesce-and-swap: rebalancing warms survivor engines under the write lock so PreloadBytes is consistent the moment Remove returns
	if err := f.replanLocked(); err != nil {
		return fmt.Errorf("sti: replanning after removing %q: %w", name, err)
	}
	return nil
}

// Entry returns a snapshot of the managed entry for a model name,
// including the current plan ladder in Tiers.
func (f *Fleet) Entry(name string) (*FleetEntry, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.entries[name]
	if !ok {
		return nil, false
	}
	snap := *e
	targets, plans := e.cache.Entries()
	snap.Tiers = make([]PlanTier, len(targets))
	for i := range targets {
		snap.Tiers[i] = PlanTier{Target: targets[i], Plan: plans[i]}
	}
	snap.Replicas = e.pool.Size()
	return &snap, true
}

// Target returns the latency target of a managed model.
func (f *Fleet) Target(name string) (time.Duration, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.entries[name]
	if !ok {
		return 0, false
	}
	return e.Target, true
}

// Names lists managed models in a stable order.
func (f *Fleet) Names() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.namesLocked()
}

func (f *Fleet) namesLocked() []string {
	names := make([]string, 0, len(f.entries))
	for n := range f.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetBudget changes the fleet-wide preload budget (e.g. on OS memory
// pressure) and replans every pipeline. A failed replan keeps the
// previous budget, which every entry's grant still sums within.
func (f *Fleet) SetBudget(budget int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	prev := f.budget
	f.budget = budget
	//sti:lockok quiesce-and-swap: a budget change must not race admission; the warm IO runs under the write lock so no request decodes against a half-evicted buffer
	if err := f.replanLocked(); err != nil {
		f.budget = prev
		return err
	}
	return nil
}

// Budget returns the fleet-wide preload budget.
func (f *Fleet) Budget() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.budget
}

// Replan splits the budget across models proportionally to their
// weights, plans each model's pipeline, resizes each model's preload
// buffer, and warms it. In-flight requests finish first; requests
// admitted afterwards see the new plans.
func (f *Fleet) Replan() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	//sti:lockok quiesce-and-swap: Replan's contract is that in-flight requests finish first and new admissions see the new plans; the write lock held across the warm IS that barrier
	return f.replanLocked()
}

// replanLocked replans the whole fleet atomically: every model's grant
// and plan *ladder* (graduated tier targets around its default, all
// sharing the model's one preload grant) is staged before any entry or
// engine is touched, so a planning failure for one model leaves every
// entry on its previous consistent ladder and budget (no partial
// commit whose grants no longer sum to f.budget). A warming failure
// rolls already-warmed buffers back to their previous grants and
// ladders (best-effort — the buffers are a performance artifact, the
// entries stay untouched either way).
func (f *Fleet) replanLocked() error {
	var totalWeight float64
	for _, e := range f.entries {
		totalWeight += e.Weight
	}
	names := f.namesLocked()

	// Stage: compute all grants and tier ladders without side effects.
	// Each model's plans are built against its *per-replica* slice, so
	// replicated output matches one engine planned under that slice;
	// the shared buffer that holds them has the whole grant.
	grants := make([]int64, len(names))
	targets := make([][]time.Duration, len(names))
	ladders := make([][]*Plan, len(names))
	for i, name := range names {
		e := f.entries[name]
		grants[i] = int64(float64(f.budget) * e.Weight / totalWeight)
		per := replica.PerReplica(grants[i], e.pool.Size())
		targets[i] = planner.Ladder(e.Target)
		for _, target := range targets[i] {
			plan, err := e.System.Plan(target, per)
			if err != nil {
				return fmt.Errorf("sti: replanning %q tier %v: %w", name, target, err)
			}
			ladders[i] = append(ladders[i], plan)
		}
	}

	// Warm every model's preload buffer, once, under its new grant:
	// the bottom-up union of the ladder's preload sets that fits the
	// whole grant, shared by every replica. On failure, restore the
	// buffers already touched to their committed ladders.
	for i, name := range names {
		eng := f.entries[name].System.Engine
		eng.SetCacheBudget(grants[i])
		if err := eng.WarmSet(ladders[i]); err != nil {
			for k := i; k >= 0; k-- {
				prev := f.entries[names[k]]
				prev.System.Engine.SetCacheBudget(prev.Budget)
				_ = prev.System.Engine.WarmSet(prev.cache.Plans())
			}
			return fmt.Errorf("sti: warming %q: %w", name, err)
		}
	}

	// Commit: every tier planned and every engine warmed. The old
	// ladder (including on-demand tiers, which were planned under the
	// old grants) is dropped; the new graduated tiers are pinned.
	for i, name := range names {
		e := f.entries[name]
		e.Budget = grants[i]
		e.cache.Clear()
		def := planner.TierKey(e.Target)
		for j, target := range targets[i] {
			e.cache.Pin(target, ladders[i][j])
			if target == def {
				e.Plan = ladders[i][j]
			}
		}
	}
	return nil
}

// planTierLocked plans and warms one on-demand tier for an off-ladder
// SLO, caching it LRU-bounded. Callers hold the write lock (a tier
// plan is a replan-class mutation: it resizes the shared warm set).
func (f *Fleet) planTierLocked(name string, want time.Duration) error {
	e, err := f.entryForServe(name)
	if err != nil {
		return err
	}
	if _, _, ok := e.cache.Resolve(want); ok {
		return nil // another miss raced us here and already planned it
	}
	plan, err := e.System.Plan(want, replica.PerReplica(e.Budget, e.pool.Size()))
	if err != nil {
		return fmt.Errorf("sti: planning tier %v for %q: %w", want, name, err)
	}
	// Warm first, cache second (the same stage-then-commit rule as
	// replanLocked): a tier whose warm failed must not sit in the
	// cache masquerading as served-and-warmed. The model's one buffer
	// absorbs the new tier's preload set.
	if err := e.System.Engine.WarmSet(append(e.cache.Plans(), plan)); err != nil {
		return fmt.Errorf("sti: warming tier %v for %q: %w", want, name, err)
	}
	e.cache.Put(want, plan)
	return nil
}

// entryForServe snapshots a planned entry under the read lock.
func (f *Fleet) entryForServe(name string) (*FleetEntry, error) {
	e, ok := f.entries[name]
	if !ok {
		return nil, fmt.Errorf("sti: fleet has no model %q", name)
	}
	if e.Plan == nil {
		return nil, fmt.Errorf("sti: model %q not planned; call Replan", name)
	}
	return e, nil
}

// effectiveTarget resolves a request's SLO against the entry: zero
// falls back to the model default.
func (e *FleetEntry) effectiveTarget(req Request) time.Duration {
	want := req.TargetLatency
	if want <= 0 {
		want = e.Target
	}
	return planner.TierKey(want)
}

// tierInfo builds the tier record a served response carries.
func (e *FleetEntry) tierInfo(target time.Duration, p *Plan, cacheHit, downgraded bool) *pipeline.TierInfo {
	cfg := e.System.Store.Man.Config
	return &pipeline.TierInfo{
		Target:     target,
		Fidelity:   p.Fidelity(cfg.Layers, cfg.Heads),
		CacheHit:   cacheHit,
		Downgraded: downgraded,
	}
}

// resolvedTier is the outcome of resolving one request (or one
// batch's tightest member) against a model's plan ladder.
type resolvedTier struct {
	entry *FleetEntry
	tier  time.Duration
	plan  *Plan
	// demoted reports that a congestion downgrade actually landed one
	// rung coarser — false when the request already rode the coarsest
	// cached tier, so responses never claim a demotion that didn't
	// happen.
	demoted  bool
	cacheHit bool // resolved on the first attempt, without planning
}

// info builds the tier record responses carry.
func (r resolvedTier) info() *pipeline.TierInfo {
	return r.entry.tierInfo(r.tier, r.plan, r.cacheHit, r.demoted)
}

// resolveForServe is the resolve-or-plan loop shared by Serve and
// ServeBatch: under the read lock it picks the tier-selecting request
// via pick (which may consult the entry's default target), resolves
// its effective target to the tightest cached tier that meets it, and
// applies a congestion demotion one rung down the cached ladder. A
// cache miss releases the lock, plans and warms the missing tier
// under the write lock, and retries — bounded, so a replan storm
// evicting freshly planned tiers degrades into an error instead of a
// livelock.
//
// On success the read lock is HELD so the resolved plan cannot be
// swapped mid-execution: the caller must f.mu.RUnlock() when done
// with it. On error the lock is released.
func (f *Fleet) resolveForServe(name string, pick func(*FleetEntry) Request) (resolvedTier, error) {
	const maxAttempts = 3
	for attempt := 0; ; attempt++ {
		f.mu.RLock()
		e, err := f.entryForServe(name)
		if err != nil {
			f.mu.RUnlock()
			return resolvedTier{}, err
		}
		req := pick(e)
		want := e.effectiveTarget(req)
		tier, plan, ok := e.cache.Resolve(want)
		if ok {
			r := resolvedTier{entry: e, tier: tier, plan: plan, cacheHit: attempt == 0}
			if req.Downgraded {
				if below, coarser, okBelow := e.cache.ResolveBelow(tier); okBelow {
					r.tier, r.plan, r.demoted = below, coarser, true
				}
			}
			return r, nil
		}
		f.mu.RUnlock()
		if attempt+1 >= maxAttempts {
			return resolvedTier{}, fmt.Errorf("sti: model %q: plan tier %v evicted before serving (%d attempts)",
				name, want, attempt+1)
		}
		f.mu.Lock()
		//sti:lockok quiesce-and-swap: restaging an evicted tier warms the engine under the write lock so the retry loop cannot observe another half-staged ladder
		err = f.planTierLocked(name, want)
		f.mu.Unlock()
		if err != nil {
			return resolvedTier{}, err
		}
	}
}

// Serve runs one task-typed request (classify or generate) on the
// named model — the fleet's primary entry point. The request's
// TargetLatency (0 = the model default) is resolved to the tightest
// cached plan tier that meets it; an off-ladder SLO plans and warms a
// new tier on the miss (LRU-bounded per model), and the response's
// Tier records the target, fidelity and cache outcome that actually
// served it. Concurrent Serve calls proceed in parallel; a concurrent
// Replan blocks until they drain. Cancelling ctx aborts the shard
// stream between layers and a generate decode between tokens.
//
// A classify is a one-element ServeBatch. A generate joins the
// acquired replica's continuous-batching step loop (one batched
// forward per step across every in-flight stream, over the plan's
// once-materialized immutable submodel); the read lock — which a
// Replan must wait out — is held only long enough to enqueue it, never
// for its many decode steps, so one long generation cannot stall
// budget changes (or, behind a pending writer, every other model's
// traffic).
func (f *Fleet) Serve(ctx context.Context, name string, req Request) (*Response, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.Task == TaskClassify {
		resps, _, err := f.ServeBatch(ctx, name, []Request{req})
		if err != nil {
			return nil, err
		}
		return resps[0], nil
	}
	r, err := f.resolveForServe(name, func(*FleetEntry) Request { return req })
	if err != nil {
		return nil, err
	}
	info := r.info()
	// Generate joins the acquired replica's continuous-batching step
	// loop: Submit only enqueues (the loop admits between decode steps
	// and shares one batched forward — and one shard stream per plan —
	// across every in-flight sequence), so the read lock is released
	// the moment the stream is queued. The replica acquisition, by
	// contrast, is held until the stream's terminal result: it is what
	// makes least-loaded dispatch count live decodes.
	rep := r.entry.pool.Acquire()
	ch, err := func() (<-chan pipeline.StreamResult, error) {
		defer f.mu.RUnlock()
		return rep.Batcher.Submit(ctx, r.plan, req)
	}()
	if err != nil {
		r.entry.pool.Release(rep, 0)
		return nil, err
	}
	out := <-ch
	served := 0
	if out.Resp != nil {
		served = 1 // partial decodes served tokens too
	}
	r.entry.pool.Release(rep, served)
	if out.Resp != nil {
		out.Resp.Tier = info
	}
	return out.Resp, out.Err
}

// GenerateStats aggregates a model's continuous-batching step loops
// (one per replica) into a single snapshot.
func (f *Fleet) GenerateStats(name string) (pipeline.StepLoopStats, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.entries[name]
	if !ok {
		return pipeline.StepLoopStats{}, false
	}
	return e.pool.GenStats(), true
}

// ServeBatch runs one batched classify on the named model: the model's
// shard stream is read and decompressed once and fanned out across all
// requests, so per-request IO is 1/len(reqs) of serving each alone,
// with per-request logits byte-identical to it. It is every classify's
// path: Serve classifies as a batch of one. The batch executes on one
// plan tier — the tightest member's SLO
// resolved against the ladder, so no request is served past its
// target — and every response's Tier records it. Every request must
// be TaskClassify: generate decodes are stateful per sequence and run
// singly through Serve.
func (f *Fleet) ServeBatch(ctx context.Context, name string, reqs []Request) ([]*Response, *BatchStats, error) {
	if len(reqs) == 0 {
		return nil, nil, fmt.Errorf("sti: ServeBatch with no requests")
	}
	inputs := make([]BatchInput, len(reqs))
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return nil, nil, fmt.Errorf("sti: ServeBatch request %d: %w", i, err)
		}
		if r.Task != TaskClassify {
			return nil, nil, fmt.Errorf("sti: ServeBatch request %d has task %v; only classify batches", i, r.Task)
		}
		inputs[i] = BatchInput{Tokens: r.Tokens, Mask: r.Mask}
	}
	// The whole batch rides one stream, so it executes on the tier of
	// its tightest member (the min effective target meets every SLO),
	// and is demoted only when *every* member was downgraded — a mixed
	// batch must not serve undemoted requests a rung coarser than they
	// asked for. (The scheduler's accumulator only groups jobs of one
	// SLO class, so its batches are always homogeneous.)
	r, err := f.resolveForServe(name, func(e *FleetEntry) Request {
		tightest := reqs[0]
		for _, req := range reqs[1:] {
			if e.effectiveTarget(req) < e.effectiveTarget(tightest) {
				tightest = req
			}
		}
		for _, req := range reqs {
			if !req.Downgraded {
				tightest.Downgraded = false
				break
			}
		}
		return tightest
	})
	if err != nil {
		return nil, nil, err
	}
	// resolveForServe returned with the read lock held. The whole
	// batch rides one replica — its single shared IO/decompress stream
	// is the point — released before the read lock (defer order).
	defer f.mu.RUnlock()
	rep := r.entry.pool.Acquire()
	served := 0
	defer func() { r.entry.pool.Release(rep, served) }()
	logits, bs, err := rep.Engine.ExecuteBatch(ctx, r.plan, inputs)
	if err != nil {
		return nil, nil, err
	}
	served = len(inputs)
	info := r.info() // one tier served the whole batch
	resps := make([]*Response, len(logits))
	for i := range logits {
		resps[i] = &Response{Logits: logits[i], Stats: &bs.ExecStats, Tier: info}
	}
	return resps, bs, nil
}

// PreloadBytes reports the total preload memory currently held across
// all managed models: each model's one buffer, whatever its replica
// count.
func (f *Fleet) PreloadBytes() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var total int64
	for _, e := range f.entries {
		total += e.System.Engine.CacheBytes()
	}
	return total
}
