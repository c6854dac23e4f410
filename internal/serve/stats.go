package serve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sti/internal/obs"
	"sti/internal/pipeline"
)

// ModelStats is one model's serving counters and latency distribution
// at snapshot time. Latency percentiles cover the last latencyWindow
// completed requests, measured admission → completion.
//
// Batches counts backend executions (a batch of size 1 is one
// execution); AvgBatch = Completed/Batches is the amortization factor.
// BytesRead sums every execution stream's flash IO, so BytesPerRequest
// = BytesRead/Completed shows the per-request IO shrinking as batches
// grow.
type ModelStats struct {
	Model           string        `json:"model"`
	Completed       uint64        `json:"completed"`
	Failed          uint64        `json:"failed"`
	Shed            uint64        `json:"shed"`
	DeadlineMiss    uint64        `json:"deadline_miss"`
	QueueDepth      int           `json:"queue_depth"`
	Batches         uint64        `json:"batches"`
	AvgBatch        float64       `json:"avg_batch"`
	MaxBatch        int           `json:"max_batch"`
	BytesRead       int64         `json:"bytes_read"`
	BytesPerRequest float64       `json:"bytes_per_request"`
	GeneratedTokens uint64        `json:"generated_tokens"`
	P50             time.Duration `json:"p50_ns"`
	P95             time.Duration `json:"p95_ns"`
	Max             time.Duration `json:"max_ns"`

	// PlanCacheHits/Misses count served requests by how their SLO
	// resolved: a hit rode an already-cached plan tier, a miss planned
	// (and warmed) a new tier on demand.
	PlanCacheHits   uint64 `json:"plan_cache_hits"`
	PlanCacheMisses uint64 `json:"plan_cache_misses"`
	// Downgraded counts requests congestion demoted to a coarser plan
	// tier instead of shedding (best-effort past the high-water mark,
	// or over-deadline jobs at dequeue).
	Downgraded uint64 `json:"downgraded"`
	// ServedByTier counts completed requests per plan-tier target
	// (key: the tier's latency target, e.g. "200ms").
	ServedByTier map[string]uint64 `json:"served_by_tier,omitempty"`

	// Replicas is the model's replica count and ReplicaServed the
	// completed-request counter of each replica (pool order), when the
	// backend serves the model from a replica pool.
	Replicas      int      `json:"replicas,omitempty"`
	ReplicaServed []uint64 `json:"replica_served,omitempty"`
	// ScaleUps and ScaleDowns are always zero: a pool is never resized.
	// They are kept only because the benchmark driver still compiles
	// against them (its server_scalings diagnostic sums them).
	ScaleUps   uint64 `json:"scale_ups,omitempty"`
	ScaleDowns uint64 `json:"scale_downs,omitempty"`
	// SingleflightHits counts shard reads the model's shared payload
	// cache absorbed (coalesced onto an in-flight read or served from
	// retained payloads) instead of re-reading flash; FlashReads is
	// what actually hit flash, and SingleflightBytesSaved the IO the
	// dedup avoided.
	SingleflightHits       uint64 `json:"singleflight_hits"`
	FlashReads             uint64 `json:"flash_reads,omitempty"`
	SingleflightBytesSaved int64  `json:"singleflight_bytes_saved,omitempty"`
	// PeerHits counts demand misses a cluster peer's retained copy
	// satisfied instead of local flash (PeerBytes the bytes so served);
	// PeerServed counts retained payloads this node donated to peers.
	PeerHits   uint64 `json:"peer_hits,omitempty"`
	PeerBytes  int64  `json:"peer_bytes,omitempty"`
	PeerServed uint64 `json:"peer_served,omitempty"`

	// Gen snapshots the model's continuous-batching step loops (one
	// per replica, aggregated): batched decode steps, in-flight and
	// peak streams, best-effort preemptions and the live paged KV
	// bytes charged against the model's preload grant. Nil when the
	// backend runs no step loops.
	Gen *pipeline.StepLoopStats `json:"gen,omitempty"`
}

// Stats is a point-in-time snapshot of the whole scheduler. Each
// aggregate counter is exactly the sum of the same field across
// Models: Shed counts admission-queue rejections only; deadline
// expiries are under DeadlineMiss.
type Stats struct {
	Uptime time.Duration `json:"uptime_ns"`
	// Draining is true once graceful shutdown began: the scheduler
	// still finishes in-flight and queued work, but a cluster router
	// must stop sending new traffic here before the listener closes.
	Draining        bool    `json:"draining,omitempty"`
	Throughput      float64 `json:"throughput_rps"` // completed requests/sec since start
	Completed       uint64  `json:"completed"`
	Failed          uint64  `json:"failed"`
	Shed            uint64  `json:"shed"`
	DeadlineMiss    uint64  `json:"deadline_miss"`
	Batches         uint64  `json:"batches"`
	AvgBatch        float64 `json:"avg_batch"`
	BytesRead       int64   `json:"bytes_read"`
	GeneratedTokens uint64  `json:"generated_tokens"`
	PlanCacheHits   uint64  `json:"plan_cache_hits"`
	PlanCacheMisses uint64  `json:"plan_cache_misses"`
	Downgraded      uint64  `json:"downgraded"`
	// Replicas sums every model's replica count;
	// SingleflightHits sums the shard reads the shared payload caches
	// absorbed across models.
	Replicas         int    `json:"replicas,omitempty"`
	SingleflightHits uint64 `json:"singleflight_hits"`
	// PeerHits/PeerServed sum the cluster peer-cache level's traffic
	// (misses peers served for this node, and payloads this node
	// donated).
	PeerHits   uint64 `json:"peer_hits,omitempty"`
	PeerServed uint64 `json:"peer_served,omitempty"`
	// GenSteps/GenStreams/GenKVBytes sum the continuous-batching step
	// loops across models: batched decode forwards executed, streams
	// decoding right now, and live paged KV bytes.
	GenSteps   uint64 `json:"gen_steps,omitempty"`
	GenStreams int    `json:"gen_streams,omitempty"`
	GenKVBytes int64  `json:"gen_kv_bytes,omitempty"`
	// ServedByTier merges every model's per-tier served counts.
	ServedByTier map[string]uint64 `json:"served_by_tier,omitempty"`
	Models       []ModelStats      `json:"models"`
}

// modelStats holds one model's serving instruments. The counters are
// obs registry instruments — when the scheduler has an observability
// hub they are exposed on /metrics under the model label, and
// Snapshot reads the very same instruments to keep the /v1/stats JSON
// shape (there is exactly one set of counters, not an ad-hoc copy).
type modelStats struct {
	model string

	nCompleted  *obs.Counter
	nFailed     *obs.Counter
	nShed       *obs.Counter
	nDeadline   *obs.Counter
	nBatches    *obs.Counter
	nGenerated  *obs.Counter
	nCacheHit   *obs.Counter
	nCacheMiss  *obs.Counter
	nDowngraded *obs.Counter
	bytesRead   *obs.Counter
	latency     *obs.Histogram // admission -> completion, ns
	queueWait   *obs.Histogram // admission -> worker pickup, ns

	// Max-trackers stay CAS loops: a registry instrument is a counter,
	// gauge or histogram; a running max is none of those.
	maxBatch     atomic.Int64
	maxLatencyNS atomic.Int64

	mu      sync.Mutex
	window  []time.Duration // ring buffer of recent total latencies
	next    int
	wrapped bool
	byTier  map[time.Duration]uint64 // served requests per tier target
}

// newModelStats builds a model's instrument set. With a nil registry
// the instruments still exist and record (unexposed) — every caller
// path is identical whether or not /metrics is wired up.
func newModelStats(model string, window int, reg *obs.Registry) *modelStats {
	m := &modelStats{
		model:  model,
		window: make([]time.Duration, window),
		byTier: make(map[time.Duration]uint64),
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lbl := obs.Labels{"model": model}
	m.nCompleted = reg.NewCounter("sti_requests_completed_total", "Requests completed successfully.", lbl)
	m.nFailed = reg.NewCounter("sti_requests_failed_total", "Requests failed at the backend.", lbl)
	m.nShed = reg.NewCounter("sti_requests_shed_total", "Requests shed at admission (queue full).", lbl)
	m.nDeadline = reg.NewCounter("sti_deadline_miss_total", "Requests expired before or during execution.", lbl)
	m.nBatches = reg.NewCounter("sti_batches_total", "Backend executions (a batch of 1 is one execution).", lbl)
	m.nGenerated = reg.NewCounter("sti_generated_tokens_total", "Tokens decoded by generate requests.", lbl)
	m.nCacheHit = reg.NewCounter("sti_plan_cache_hits_total", "Served requests that rode a cached plan tier.", lbl)
	m.nCacheMiss = reg.NewCounter("sti_plan_cache_misses_total", "Served requests that planned a new tier on demand.", lbl)
	m.nDowngraded = reg.NewCounter("sti_downgraded_total", "Requests congestion demoted to a coarser tier.", lbl)
	m.bytesRead = reg.NewCounter("sti_flash_bytes_read_total", "Flash bytes read by execution streams.", lbl)
	m.latency = reg.NewHistogram("sti_request_latency_ns", "Request latency, admission to completion.", lbl)
	m.queueWait = reg.NewHistogram("sti_queue_wait_ns", "Queue wait, admission to worker pickup.", lbl)
	return m
}

func (m *modelStats) completed(total time.Duration) {
	m.nCompleted.Inc()
	m.latency.Observe(int64(total))
	for {
		old := m.maxLatencyNS.Load()
		if int64(total) <= old || m.maxLatencyNS.CompareAndSwap(old, int64(total)) {
			break
		}
	}
	m.mu.Lock()
	m.window[m.next] = total
	m.next++
	if m.next == len(m.window) {
		m.next, m.wrapped = 0, true
	}
	m.mu.Unlock()
}

// queued records one request's admission -> pickup wait.
func (m *modelStats) queued(wait time.Duration) { m.queueWait.Observe(int64(wait)) }

func (m *modelStats) failed() { m.nFailed.Inc() }

// executed records one backend execution: a batch of n requests served
// by a single stream that read bytes from flash.
func (m *modelStats) executed(n int, bytes int64) {
	m.nBatches.Inc()
	if bytes > 0 {
		m.bytesRead.AddN(uint64(bytes))
	}
	for {
		old := m.maxBatch.Load()
		if int64(n) <= old || m.maxBatch.CompareAndSwap(old, int64(n)) {
			break
		}
	}
}

// generated records tokens decoded by one generate execution.
func (m *modelStats) generated(n int) {
	if n > 0 {
		m.nGenerated.AddN(uint64(n))
	}
}

// servedTier records which plan tier served one completed request, how
// its SLO resolved against the plan cache, and whether congestion
// demoted it. A nil tier (a backend that resolves no tiers) records
// nothing.
func (m *modelStats) servedTier(ti *pipeline.TierInfo) {
	if ti == nil {
		return
	}
	if ti.CacheHit {
		m.nCacheHit.Inc()
	} else {
		m.nCacheMiss.Inc()
	}
	if ti.Downgraded {
		m.nDowngraded.Inc()
	}
	m.mu.Lock()
	m.byTier[ti.Target]++
	m.mu.Unlock()
}

func (m *modelStats) shed()         { m.nShed.Inc() }
func (m *modelStats) deadlineMiss() { m.nDeadline.Inc() }

func (m *modelStats) snapshot() ModelStats {
	// Copy the window and tier map under the lock; the percentile sort
	// and every map/string conversion run on the copies after release,
	// so a snapshot storm never serializes the completion path behind
	// an O(n log n) sort.
	m.mu.Lock()
	n := m.next
	if m.wrapped {
		n = len(m.window)
	}
	lat := append([]time.Duration(nil), m.window[:n]...)
	var tiers map[time.Duration]uint64
	if len(m.byTier) > 0 {
		tiers = make(map[time.Duration]uint64, len(m.byTier))
		for target, count := range m.byTier {
			tiers[target] = count
		}
	}
	m.mu.Unlock()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var byTier map[string]uint64
	if len(tiers) > 0 {
		byTier = make(map[string]uint64, len(tiers))
		for target, count := range tiers {
			byTier[target.String()] = count
		}
	}
	ms := ModelStats{
		Model:           m.model,
		Completed:       m.nCompleted.Value(),
		Failed:          m.nFailed.Value(),
		Shed:            m.nShed.Value(),
		DeadlineMiss:    m.nDeadline.Value(),
		Batches:         m.nBatches.Value(),
		GeneratedTokens: m.nGenerated.Value(),
		PlanCacheHits:   m.nCacheHit.Value(),
		PlanCacheMisses: m.nCacheMiss.Value(),
		Downgraded:      m.nDowngraded.Value(),
		ServedByTier:    byTier,
		MaxBatch:        int(m.maxBatch.Load()),
		BytesRead:       int64(m.bytesRead.Value()),
		P50:             percentile(lat, 0.50),
		P95:             percentile(lat, 0.95),
		Max:             time.Duration(m.maxLatencyNS.Load()),
	}
	if ms.Batches > 0 {
		ms.AvgBatch = float64(ms.Completed) / float64(ms.Batches)
	}
	if ms.Completed > 0 {
		ms.BytesPerRequest = float64(ms.BytesRead) / float64(ms.Completed)
	}
	return ms
}

// percentile reads the p-th quantile from an ascending-sorted slice
// using the nearest-rank method: the smallest value with at least p·n
// values at or below it, i.e. index ceil(p·n)−1.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// Snapshot reports current serving metrics across all models that have
// received at least one request.
func (s *Scheduler) Snapshot() Stats {
	s.mu.Lock()
	queues := make([]*modelQueue, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.Unlock()

	st := Stats{Uptime: time.Since(s.start), Draining: s.Draining()}
	for _, q := range queues {
		ms := q.stats.snapshot()
		ms.QueueDepth = len(q.jobs)
		if ps, ok := s.backend.ReplicaStats(ms.Model); ok {
			ms.Replicas = ps.Replicas
			ms.ReplicaServed = ps.Served
		}
		if cs, ok := s.backend.SharedCacheStats(ms.Model); ok {
			ms.SingleflightHits = cs.Hits()
			ms.FlashReads = cs.FlashReads
			ms.SingleflightBytesSaved = cs.BytesSaved
			ms.PeerHits = cs.PeerHits
			ms.PeerBytes = cs.PeerBytes
			ms.PeerServed = cs.PeerServed
		}
		if gs, ok := s.backend.GenerateStats(ms.Model); ok {
			ms.Gen = &gs
			st.GenSteps += gs.Steps
			st.GenStreams += gs.Streams
			st.GenKVBytes += gs.KVBytes
		}
		st.Replicas += ms.Replicas
		st.SingleflightHits += ms.SingleflightHits
		st.PeerHits += ms.PeerHits
		st.PeerServed += ms.PeerServed
		st.Completed += ms.Completed
		st.Failed += ms.Failed
		st.Shed += ms.Shed
		st.DeadlineMiss += ms.DeadlineMiss
		st.Batches += ms.Batches
		st.BytesRead += ms.BytesRead
		st.GeneratedTokens += ms.GeneratedTokens
		st.PlanCacheHits += ms.PlanCacheHits
		st.PlanCacheMisses += ms.PlanCacheMisses
		st.Downgraded += ms.Downgraded
		for tier, count := range ms.ServedByTier {
			if st.ServedByTier == nil {
				st.ServedByTier = make(map[string]uint64)
			}
			st.ServedByTier[tier] += count
		}
		st.Models = append(st.Models, ms)
	}
	sort.Slice(st.Models, func(i, j int) bool { return st.Models[i].Model < st.Models[j].Model })
	if sec := st.Uptime.Seconds(); sec > 0 {
		st.Throughput = float64(st.Completed) / sec
	}
	if st.Batches > 0 {
		st.AvgBatch = float64(st.Completed) / float64(st.Batches)
	}
	return st
}
