package sti

import (
	"sti/internal/obs"
	"sti/internal/pipeline"
	"sti/internal/replica"
	"sti/internal/store"
)

// SetObservability bridges the fleet's authoritative counters — shard
// cache, replica pools, generation step loops — into the
// hub's metrics registry as scrape-time collector functions. Nothing
// is double-counted and no instrument is recorded on a serving path:
// every value is read from the existing stats surfaces when /metrics
// is scraped. Safe to call once per hub; re-registration of the same
// names returns the existing instruments.
func (f *Fleet) SetObservability(h *obs.Hub) {
	if f == nil || h == nil {
		return
	}
	reg := h.Registry()

	cache := func(pick func(store.CacheStats) float64) func() float64 {
		return f.sumEntries(func(e *FleetEntry) float64 { return pick(e.shared.Stats()) })
	}
	pool := func(pick func(replica.PoolStats) float64) func() float64 {
		return f.sumEntries(func(e *FleetEntry) float64 { return pick(e.pool.Stats()) })
	}
	gen := func(pick func(pipeline.StepLoopStats) float64) func() float64 {
		return f.sumEntries(func(e *FleetEntry) float64 { return pick(e.pool.GenStats()) })
	}

	reg.NewGaugeFunc("sti_fleet_models", "Models managed by the fleet.", nil,
		func() float64 {
			f.mu.RLock()
			defer f.mu.RUnlock()
			return float64(len(f.entries))
		})
	reg.NewGaugeFunc("sti_fleet_budget_bytes", "Total preload-memory budget.", nil,
		func() float64 {
			f.mu.RLock()
			defer f.mu.RUnlock()
			return float64(f.budget)
		})

	reg.NewCounterFunc("sti_shard_cache_requests_total", "Shard payload reads through the single-flight caches.", nil,
		cache(func(s store.CacheStats) float64 { return float64(s.Requests) }))
	reg.NewCounterFunc("sti_shard_cache_hits_total", "Reads absorbed without local flash IO (retained, coalesced, peer).", nil,
		cache(func(s store.CacheStats) float64 { return float64(s.Hits()) }))
	reg.NewCounterFunc("sti_shard_cache_flash_reads_total", "Reads that reached local flash.", nil,
		cache(func(s store.CacheStats) float64 { return float64(s.FlashReads) }))
	reg.NewCounterFunc("sti_shard_cache_bytes_read_total", "Bytes read from local flash.", nil,
		cache(func(s store.CacheStats) float64 { return float64(s.BytesRead) }))
	reg.NewCounterFunc("sti_shard_cache_bytes_saved_total", "Bytes of IO the caches absorbed.", nil,
		cache(func(s store.CacheStats) float64 { return float64(s.BytesSaved) }))
	reg.NewGaugeFunc("sti_shard_cache_retained_bytes", "Payload bytes currently retained across caches.", nil,
		cache(func(s store.CacheStats) float64 { return float64(s.RetainedBytes) }))
	reg.NewCounterFunc("sti_shard_cache_peer_hits_total", "Demand misses served by a peer node's retained copy.", nil,
		cache(func(s store.CacheStats) float64 { return float64(s.PeerHits) }))
	reg.NewCounterFunc("sti_shard_cache_peer_served_total", "Retained payloads this node served to peers.", nil,
		cache(func(s store.CacheStats) float64 { return float64(s.PeerServed) }))

	reg.NewGaugeFunc("sti_replicas", "Replica engines across models.", nil,
		pool(func(s replica.PoolStats) float64 { return float64(s.Replicas) }))
	reg.NewGaugeFunc("sti_preload_cache_bytes", "Preload buffer bytes held across replicas.", nil,
		pool(func(s replica.PoolStats) float64 { return float64(s.CacheBytes) }))
	reg.NewGaugeFunc("sti_kv_bytes", "Paged decode KV bytes held live.", nil,
		pool(func(s replica.PoolStats) float64 { return float64(s.KVBytes) }))

	reg.NewCounterFunc("sti_gen_steps_total", "Batched decode forwards executed.", nil,
		gen(func(s pipeline.StepLoopStats) float64 { return float64(s.Steps) }))
	reg.NewCounterFunc("sti_gen_step_sequences_total", "Sequences summed over decode forwards.", nil,
		gen(func(s pipeline.StepLoopStats) float64 { return float64(s.StepSequences) }))
	reg.NewGaugeFunc("sti_gen_streams", "Generate streams decoding right now.", nil,
		gen(func(s pipeline.StepLoopStats) float64 { return float64(s.Streams) }))
	reg.NewCounterFunc("sti_gen_tokens_out_total", "Tokens decoded by the continuous batchers.", nil,
		gen(func(s pipeline.StepLoopStats) float64 { return float64(s.TokensOut) }))
	reg.NewCounterFunc("sti_gen_preempted_total", "Streams whose KV was evicted under budget pressure.", nil,
		gen(func(s pipeline.StepLoopStats) float64 { return float64(s.Preempted) }))
	reg.NewCounterFunc("sti_gen_recomputed_tokens_total", "Tokens replayed to restore evicted KV.", nil,
		gen(func(s pipeline.StepLoopStats) float64 { return float64(s.RecomputedTokens) }))
}

// sumEntries builds a scrape-time reader that folds one per-entry
// value across the fleet under the read lock.
func (f *Fleet) sumEntries(pick func(e *FleetEntry) float64) func() float64 {
	return func() float64 {
		f.mu.RLock()
		defer f.mu.RUnlock()
		var total float64
		for _, e := range f.entries {
			total += pick(e)
		}
		return total
	}
}
