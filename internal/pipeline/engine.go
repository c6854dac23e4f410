package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sti/internal/model"
	"sti/internal/obs"
	"sti/internal/planner"
	"sti/internal/shard"
	"sti/internal/store"
)

// Engine is the real concurrent pipeline executor: an IO goroutine
// streams each layer's shard payloads from the store while the main
// goroutine decompresses (in parallel across a layer's shards, like the
// paper's OpenMP decompressor) and computes the previous layers.
//
// The engine holds the preload buffer (§3.1): a byte-budgeted cache of
// compressed shard payloads that survives across executions. Warm fills
// it per a plan before user engagement; Retain implements §5.5's
// eviction (keep bottom layers, evict from the top) after an execution.
// A model's replica engines (NewReplica) share one buffer.
type Engine struct {
	Store    *store.Store
	Resident *model.Weights

	// src is where shard payloads are read from: the store itself by
	// default, or a store.SharedCache when many replica engines of one
	// model dedupe their flash reads through a single-flight cache.
	// osrc is src's origin-tagged surface when it has one — the IO
	// worker reads through it so shard-IO trace spans carry a
	// flash/cache/peer origin.
	src  store.PayloadReader
	osrc store.OriginReader
	// verified reports that src checks payload checksums itself (a
	// store.SharedCache verifies every flight it fills); otherwise the
	// engine's own reads are the ingress and verify each payload once.
	verified bool

	// free is the workspace free list: full-width sub-layers that
	// ExecuteBatch assembles every layer into. Its capacity,
	// GOMAXPROCS, caps the bytes it retains outside the budget.
	free chan *model.SubLayer

	// preload is the model's preload buffer, shared with its replicas.
	*preload

	// ioHook, when non-nil, is called at the top of every layer's IO
	// job — before the cancellation check — so tests can cancel a
	// context at an exact layer and assert the stream stops there.
	ioHook func(layer int)
}

// preload is a model's preload buffer and the decode KV cache charged
// against the same §3.2 grant: preload shards and KV blocks arbitrate
// for one budget (cacheBytes + kvBytes ≤ cacheBudget). Every engine of
// a model points at the same preload, so each payload is charged once.
type preload struct {
	mu          sync.Mutex
	cache       map[shard.Version][]byte
	cacheBytes  int64
	cacheBudget int64
	kvBytes     int64

	// steps counts step-loop rounds that made progress on any engine
	// sharing the buffer: a loop starved for KV waits, rather than
	// sheds, while another replica's loop still moves.
	steps atomic.Uint64
}

// NewEngine opens the resident parameters of a preprocessed store. The
// engine owns its preload buffer, under cacheBudget bytes.
func NewEngine(st *store.Store, cacheBudget int64) (*Engine, error) {
	res, err := st.LoadResident()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Store: st, Resident: res,
		free:    make(chan *model.SubLayer, runtime.GOMAXPROCS(0)),
		preload: &preload{cache: make(map[shard.Version][]byte), cacheBudget: cacheBudget},
	}
	e.SetPayloadSource(st)
	return e, nil
}

// NewReplica builds a replica of e for a replica pool: an engine that
// shares e's store, resident weights (read-only during execution),
// payload source and preload buffer, and keeps only its own workspace
// free list. A budget change, warm or KV reservation through any engine
// of the model is seen by all of them, and the buffer holds each
// payload once, under the model's whole grant.
func NewReplica(e *Engine) *Engine {
	return &Engine{
		Store: e.Store, Resident: e.Resident,
		src: e.src, osrc: e.osrc, verified: e.verified,
		free:    make(chan *model.SubLayer, runtime.GOMAXPROCS(0)),
		preload: e.preload,
	}
}

// SetPayloadSource redirects the engine's shard reads (e.g. through a
// shared single-flight cache); nil reads the store directly. It must be
// called before the engine serves traffic — the source is not
// synchronized with executions.
func (e *Engine) SetPayloadSource(src store.PayloadReader) {
	if src == nil {
		src = e.Store
	}
	e.src = src
	e.osrc, _ = src.(store.OriginReader)
	_, e.verified = src.(*store.SharedCache)
}

// read fetches one shard payload from the engine's source and reports
// its origin. Unless the source verified it already, the payload's
// checksum is checked here, once: this is where the bytes enter the
// engine, and nothing downstream (preload-buffer hits, assembly) hashes
// them again.
func (e *Engine) read(v shard.Version) (payload []byte, origin string, err error) {
	if e.osrc != nil {
		payload, origin, err = e.osrc.ReadShardPayloadOrigin(v.Layer, v.Slice, v.Bits)
	} else {
		origin = store.OriginFlash
		payload, err = e.src.ReadShardPayload(v.Layer, v.Slice, v.Bits)
	}
	if err == nil && !e.verified {
		err = store.VerifyPayload(payload)
	}
	return payload, origin, err
}

// workspace takes a sub-layer from the free list, or allocates one wide
// enough for any plan of the model.
func (e *Engine) workspace() *model.SubLayer {
	select {
	case ws := <-e.free:
		return ws
	default:
		cfg := e.Resident.Cfg
		return model.NewSubLayer(cfg, cfg.Heads)
	}
}

// release returns a workspace to the free list, or drops it for the GC
// when GOMAXPROCS workspaces are already idle there.
func (e *Engine) release(ws *model.SubLayer) {
	select {
	case e.free <- ws:
	default:
	}
}

// CacheBytes returns the bytes currently held in the preload buffer.
func (e *Engine) CacheBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cacheBytes
}

// Budget returns the preload buffer's byte budget.
func (e *Engine) Budget() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cacheBudget
}

// KVBytes returns the decode KV-cache bytes charged to the preload
// buffer's budget by every engine that shares it.
func (e *Engine) KVBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.kvBytes
}

// ReserveKV charges bytes of decode KV cache against the preload
// buffer's budget, evicting preload shards top-layers-first to make
// room (KV for in-flight streams beats speculative preloads — the
// stream is live now). It reports false, charging nothing, if the
// budget cannot fit the bytes even with the preload buffer emptied.
// Implements model.KVCharger.
func (e *Engine) ReserveKV(bytes int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evictForLocked(bytes, nil)
	if e.cacheBytes+e.kvBytes+bytes > e.cacheBudget {
		return false
	}
	e.kvBytes += bytes
	return true
}

// ReleaseKV returns previously reserved KV bytes to the budget.
// Implements model.KVCharger.
func (e *Engine) ReleaseKV(bytes int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.kvBytes -= bytes
}

// SetCacheBudget resizes the preload buffer (§3.2: the app or OS can
// change |S| at any time). When shrinking, cached shards are evicted
// from the top layers down — bottom layers are needed earliest on the
// next engagement (§5.5).
func (e *Engine) SetCacheBudget(budget int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cacheBudget = budget
	e.evictForLocked(0, nil)
}

// evictForLocked frees space top-layers-first until need more bytes fit
// within the budget (it may fail to free enough; callers re-check).
// When floor is non-nil only shards strictly above it are eligible —
// bottom layers are needed earliest on the next engagement (§5.5).
// e.mu must be held.
func (e *Engine) evictForLocked(need int64, floor *shard.Version) {
	if e.cacheBytes+e.kvBytes+need <= e.cacheBudget {
		return
	}
	victims := make([]shard.Version, 0, len(e.cache))
	for c := range e.cache {
		if floor != nil && !(c.Layer > floor.Layer || (c.Layer == floor.Layer && c.Slice > floor.Slice)) {
			continue
		}
		victims = append(victims, c)
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].Layer != victims[j].Layer {
			return victims[i].Layer > victims[j].Layer // top layers first
		}
		return victims[i].Slice > victims[j].Slice
	})
	for _, c := range victims {
		if e.cacheBytes+e.kvBytes+need <= e.cacheBudget {
			break
		}
		e.cacheBytes -= int64(len(e.cache[c]))
		delete(e.cache, c)
	}
}

// Warm brings the buffer to exactly the plan's preload set: shard
// versions the plan does not preload are evicted (a replanned pipeline
// owns the buffer — §3.2), then missing preloads are read in. Preloads
// are filled bottom layer first, so if the plan's preload set exceeds
// the engine's current byte budget (e.g. the budget shrank after the
// plan was made), the buffer holds the bottom-most prefix that fits —
// never more than the budget.
func (e *Engine) Warm(p *planner.Plan) error { return e.WarmSet([]*planner.Plan{p}) }

// WarmSet warms the union of several plans' preload sets from one
// shared byte budget — the warm-set management of a plan-tier ladder,
// where a model keeps plans at graduated latency targets and every
// tier's preloads compete for the same buffer. Versions no plan
// preloads are evicted; the union is filled bottom layer first (then
// slice, then ascending bitwidth), so under a tight budget the bottom
// layers — needed earliest by every tier (§5.5) — win the buffer and
// the engine never holds more than its budget.
func (e *Engine) WarmSet(plans []*planner.Plan) error {
	wanted := make(map[shard.Version]bool)
	for _, p := range plans {
		if p == nil {
			continue
		}
		for l := 0; l < p.Depth; l++ {
			for j, s := range p.Slices[l] {
				if p.Preloaded[l][j] {
					wanted[shard.Version{ID: shard.ID{Layer: l, Slice: s}, Bits: p.Bits[l][j]}] = true
				}
			}
		}
	}
	e.mu.Lock()
	for v := range e.cache {
		if !wanted[v] {
			e.cacheBytes -= int64(len(e.cache[v]))
			delete(e.cache, v)
		}
	}
	e.mu.Unlock()
	// Fill bottom-up: with a tight budget the bottom layers — needed
	// earliest on the next engagement (§5.5) — win the buffer.
	versions := make([]shard.Version, 0, len(wanted))
	for v := range wanted {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool {
		if versions[i].Layer != versions[j].Layer {
			return versions[i].Layer < versions[j].Layer
		}
		if versions[i].Slice != versions[j].Slice {
			return versions[i].Slice < versions[j].Slice
		}
		return versions[i].Bits < versions[j].Bits
	})
	for _, v := range versions {
		if e.cached(v) != nil {
			continue
		}
		payload, _, err := e.read(v)
		if err != nil {
			return fmt.Errorf("pipeline: warm %v: %w", v, err)
		}
		if !e.put(v, payload) {
			// Budget full: everything after this point is a higher
			// layer the policy would refuse too — stop streaming.
			break
		}
	}
	return nil
}

func (e *Engine) cached(v shard.Version) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache[v]
}

// put inserts a payload into the preload buffer, enforcing the byte
// budget (the ARCHITECTURE.md invariant: the buffer never holds more
// than its budget). If the payload does not fit, cached shards from
// layers strictly above the incoming one are evicted top-first; if it
// still does not fit the insert is refused — bottom layers win ties
// because they are needed earliest on the next engagement (§5.5). It
// reports whether the payload is cached on return.
func (e *Engine) put(v shard.Version, payload []byte) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.cache[v]; ok {
		return true
	}
	need := int64(len(payload))
	e.evictForLocked(need, &v)
	if e.cacheBytes+e.kvBytes+need > e.cacheBudget {
		return false
	}
	e.cache[v] = payload
	e.cacheBytes += need
	return true
}

// ExecStats reports what one pipelined execution did.
type ExecStats struct {
	LayerIO      []time.Duration // wall time of each layer's IO job
	LayerCompute []time.Duration // wall time of each layer's compute job
	Stall        time.Duration   // compute time spent waiting on IO
	BytesRead    int64
	CacheHits    int
	Total        time.Duration
}

type layerDelivery struct {
	layer    int
	payloads [][]byte // indexed like plan.Slices[layer]
	ioTime   time.Duration
	read     int64
	hits     int
	err      error
}

// BatchInput is one sequence of a batched execution.
type BatchInput struct {
	Tokens []int
	Mask   []bool // valid positions; nil or empty = all valid
}

// BatchStats reports what one batched pipelined execution did. The
// embedded ExecStats describes the single shared IO/decompress stream:
// BytesRead and CacheHits are incurred once for the whole batch, so
// each request's amortized IO is BytesRead/Batch.
type BatchStats struct {
	ExecStats
	Batch int // number of sequences served by the one stream
}

// ExecuteBatch runs the plan's IO/decompress stream once and fans every
// assembled sub-layer out across B stacked sequences: each layer's
// shards are read from flash and decompressed exactly once no matter
// how many sequences ride the batch, so per-request IO is 1/B of
// sequential execution. Per-sequence logits are byte-identical to B
// separate one-input calls (the stacked kernels compute rows
// independently); a single classify is the B=1 case.
//
// Cancellation is checked between layers on both sides of the
// pipeline: the IO goroutine stops streaming within one layer of ctx
// being cancelled, and the compute loop returns ctx.Err() instead of
// starting the next layer. Payloads already staged for unexecuted
// layers are dropped (released to the GC) — only the preload buffer,
// which the plan owns, survives an aborted execution.
func (e *Engine) ExecuteBatch(ctx context.Context, p *planner.Plan, inputs []BatchInput) ([][]float32, *BatchStats, error) {
	if len(inputs) == 0 {
		return nil, nil, fmt.Errorf("pipeline: empty batch")
	}
	for i, in := range inputs {
		// An empty sequence has no CLS row; in a stacked batch it would
		// silently read its neighbor's logits.
		if len(in.Tokens) == 0 {
			return nil, nil, fmt.Errorf("pipeline: batch input %d has no tokens", i)
		}
	}
	cfg := e.Resident.Cfg
	if p.Depth > cfg.Layers || p.Width > cfg.Heads {
		return nil, nil, fmt.Errorf("pipeline: plan %dx%d exceeds model %dx%d", p.Depth, p.Width, cfg.Layers, cfg.Heads)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	stats := &BatchStats{
		ExecStats: ExecStats{
			LayerIO:      make([]time.Duration, p.Depth),
			LayerCompute: make([]time.Duration, p.Depth),
		},
		Batch: len(inputs),
	}
	sm := &model.Submodel{Cfg: cfg, Parent: e.Resident}
	batch := make([][]int, len(inputs))
	masks := make([][]bool, len(inputs))
	for i, in := range inputs {
		batch[i] = in.Tokens
		masks[i] = in.Mask
	}
	x, seqLens := sm.EmbedBatch(batch)
	ws := e.workspace()
	defer e.release(ws)
	err := e.streamLayers(ctx, p, &stats.ExecStats, ws, func(l int, sub *model.SubLayer) error {
		x = model.ForwardLayerBatch(cfg, sub, x, seqLens, masks)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	logits := sm.ClassifyBatch(x, seqLens)
	stats.Total = time.Since(start)
	return logits, stats, nil
}

// streamLayers runs the plan's IO/decompress stream once: the IO
// goroutine streams each layer's shards while this goroutine
// decompresses and assembles them, handing each sub-layer to visit in
// layer order. Every layer assembles into ws when it is non-nil, so
// visit must be done with the sub-layer when it returns; a nil ws
// assembles each layer into a fresh sub-layer visit may keep. stats
// (whose per-layer slices the caller sizes to p.Depth) accumulates the
// stream's costs; visit's time is part of the layer's compute.
// Cancellation is checked between layers on both sides.
func (e *Engine) streamLayers(ctx context.Context, p *planner.Plan, stats *ExecStats, ws *model.SubLayer, visit func(l int, sub *model.SubLayer) error) error {
	deliveries := make(chan layerDelivery, p.Depth)
	go e.ioWorker(ctx, p, deliveries)
	for l := 0; l < p.Depth; l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		waitStart := time.Now()
		d := <-deliveries
		stats.Stall += time.Since(waitStart)
		if d.err != nil {
			return d.err
		}
		if d.layer != l {
			return fmt.Errorf("pipeline: layer %d delivered out of order (want %d)", d.layer, l)
		}
		stats.LayerIO[l] = d.ioTime
		stats.BytesRead += d.read
		stats.CacheHits += d.hits

		compStart := time.Now()
		sub := ws
		if sub == nil {
			sub = model.NewSubLayer(e.Resident.Cfg, p.Width)
		}
		if err := e.assemble(p, l, d.payloads, sub); err != nil {
			return err
		}
		if err := visit(l, sub); err != nil {
			return err
		}
		stats.LayerCompute[l] = time.Since(compStart)
	}
	return nil
}

// ioWorker streams each layer's non-cached shard payloads in layer
// order, one IO job per layer (§3.1). The out channel is buffered to
// the plan's depth so the worker never blocks on a departed consumer;
// cancellation is checked at every layer boundary so flash IO stops
// within one layer of ctx being cancelled.
func (e *Engine) ioWorker(ctx context.Context, p *planner.Plan, out chan<- layerDelivery) {
	tr := obs.FromContext(ctx)
	for l := 0; l < p.Depth; l++ {
		if e.ioHook != nil {
			e.ioHook(l)
		}
		if err := ctx.Err(); err != nil {
			out <- layerDelivery{layer: l, err: err}
			return
		}
		d := layerDelivery{layer: l, payloads: make([][]byte, p.Width)}
		origin := ""
		ioStart := time.Now()
		for j, s := range p.Slices[l] {
			v := shard.Version{ID: shard.ID{Layer: l, Slice: s}, Bits: p.Bits[l][j]}
			if payload := e.cached(v); payload != nil {
				d.payloads[j] = payload
				d.hits++
				origin = worseOrigin(origin, store.OriginCache)
				continue
			}
			payload, o, err := e.read(v)
			origin = worseOrigin(origin, o)
			if err != nil {
				d.err = fmt.Errorf("pipeline: layer %d shard %v: %w", l, v, err)
				out <- d
				return
			}
			d.payloads[j] = payload
			d.read += int64(len(payload))
		}
		d.ioTime = time.Since(ioStart)
		if tr != nil && origin != "" {
			// One span per layer, tagged with the most expensive origin
			// any of its shards hit — per-shard spans would overflow the
			// slab on wide plans without adding timeline signal.
			tr.Interval(tr.Root(), obs.SpanShardIO, origin, ioStart, time.Now())
		}
		out <- d
	}
}

// originRank orders shard-read origins by cost; a layer's span is
// tagged with the most expensive origin among its shards.
func originRank(o string) int {
	switch o {
	case store.OriginFlash:
		return 3
	case store.OriginPeer:
		return 2
	case store.OriginCache:
		return 1
	}
	return 0
}

func worseOrigin(a, b string) string {
	if originRank(b) > originRank(a) {
		return b
	}
	return a
}

// assemble decodes a layer's payloads straight into sub. It prepares
// sub at the plan's width, parses each payload into a read-only view —
// without a checksum, since its bytes were verified where they entered
// memory — and writes every shard's segments in place, each shard on
// its own goroutine like the paper's parallel decompressor.
func (e *Engine) assemble(p *planner.Plan, l int, payloads [][]byte, sub *model.SubLayer) error {
	cfg := e.Resident.Cfg
	if err := sub.Prepare(cfg, e.Resident.Layers[l], p.Slices[l]); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for j, data := range payloads {
		v, err := store.ParsePayload(data)
		if err == nil && v.Count != cfg.ShardParams() {
			err = fmt.Errorf("shard payload has %d weights, want %d", v.Count, cfg.ShardParams())
		}
		if err != nil {
			wg.Wait()
			return fmt.Errorf("pipeline: layer %d slice %d: %w", l, p.Slices[l][j], err)
		}
		if j == len(payloads)-1 {
			decodeShard(cfg, sub, j, &v)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			decodeShard(cfg, sub, j, &v)
		}()
	}
	wg.Wait()
	return nil
}

// decodeShard writes one parsed shard at position i of sub.
func decodeShard(cfg model.Config, sub *model.SubLayer, i int, v *store.PayloadView) {
	for _, seg := range sub.ShardSegments(cfg, i) {
		v.DecodeInto(seg)
	}
}

// Retain implements the post-execution eviction policy (§5.5): cache
// the executed plan's shards from the bottom layer up until the budget
// is full, evicting everything else. Bottom layers are needed earliest
// next time, so preserving them avoids compulsory stalls.
func (e *Engine) Retain(p *planner.Plan) error {
	// Build the keep set and evict under the lock so a concurrent
	// SetCacheBudget shrink cannot be overfilled against a stale budget
	// read — but only collect the kept-but-missing versions there. The
	// flash reads that refill them run unlocked: IO under e.mu would
	// stall every concurrent decode step for the duration of the refill.
	e.mu.Lock()
	keep := make(map[shard.Version]bool)
	used := e.kvBytes // live decode KV is not evictable by Retain
retain:
	for l := 0; l < p.Depth; l++ {
		for j, s := range p.Slices[l] {
			v := shard.Version{ID: shard.ID{Layer: l, Slice: s}, Bits: p.Bits[l][j]}
			size, err := e.Store.Man.ShardSize(l, s, v.Bits)
			if err != nil {
				e.mu.Unlock()
				return err
			}
			if used+int64(size) > e.cacheBudget {
				break retain
			}
			keep[v] = true
			used += int64(size)
		}
	}
	var missing []shard.Version
	for v := range e.cache {
		if !keep[v] {
			e.cacheBytes -= int64(len(e.cache[v]))
			delete(e.cache, v)
		}
	}
	for v := range keep {
		if _, ok := e.cache[v]; !ok {
			missing = append(missing, v)
		}
	}
	e.mu.Unlock()
	// Refill the missing entries synchronously (they were just streamed;
	// re-reading is the offline refill of the buffer). Each insert
	// re-checks the budget under the lock: a shrink or KV reservation may
	// have landed while the payload was being read, and inserting anyway
	// would overfill.
	for _, v := range missing {
		payload, _, err := e.read(v)
		if err != nil {
			return err
		}
		e.mu.Lock()
		if _, ok := e.cache[v]; !ok && e.cacheBytes+e.kvBytes+int64(len(payload)) <= e.cacheBudget {
			e.cache[v] = payload
			e.cacheBytes += int64(len(payload))
		}
		e.mu.Unlock()
	}
	return nil
}
