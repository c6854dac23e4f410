package store

import (
	"container/list"
	"sync"
)

// PayloadReader is the read surface execution engines stream shard
// payloads through. *Store implements it by reading flash directly;
// SharedCache implements it by deduplicating reads across many engines
// of the same store.
//
// Returned bytes are read-only for every caller and for as long as
// anyone holds them: engines parse them into PayloadViews that alias
// the bytes in place, the preload buffer and the SharedCache share
// one copy among all their readers, and a SharedCache serves its
// retained bytes to peers. A reader must never hand out bytes it will
// later modify, and a caller must never write through them.
type PayloadReader interface {
	// ReadShardPayload reads the serialized payload of one shard
	// version, CRC trailer included. Only a SharedCache verifies the
	// checksum; callers reading another source verify once on receipt.
	ReadShardPayload(layer, slice, bits int) ([]byte, error)
}

var (
	_ PayloadReader = (*Store)(nil)
	_ PayloadReader = (*SharedCache)(nil)
)

// payloadKey addresses one shard payload. A store directory is
// immutable after Preprocess (every payload carries a CRC32 and the
// manifest records its exact size), so the (layer, slice, bits)
// coordinate is a stable content address within one store.
type payloadKey struct {
	Layer, Slice, Bits int
}

// flight is one in-progress flash read that concurrent callers of the
// same key coalesce onto.
type flight struct {
	done    chan struct{}
	payload []byte
	err     error
}

// verify is the cache's ingress check, run once per filled flight
// before any waiter sees the bytes: a payload that fails its checksum
// becomes the flight's error, so it is neither served nor retained,
// and retained or coalesced hits never hash the bytes again.
func (f *flight) verify() {
	if f.err != nil {
		return
	}
	if err := VerifyPayload(f.payload); err != nil {
		f.payload, f.err = nil, err
	}
}

// CacheStats is a point-in-time snapshot of a SharedCache's
// deduplication counters. BytesRead is actual flash IO; BytesSaved is
// IO the cache absorbed (coalesced or retained hits).
//
// The Prefetch* counters account the speculative second-class segment
// separately from demand retention, so wasted prefetch is measurable:
// Prefetches is speculative flash reads issued, PrefetchHits is
// prefetched payloads a demand read later consumed (promoted to the
// demand segment), PrefetchWasted is prefetched payloads evicted or
// dropped without ever being demanded, and PrefetchedBytes is the
// segment's current residency (within RetainedBytes' budget, never in
// addition to it).
type CacheStats struct {
	Requests         uint64 `json:"requests"`
	FlashReads       uint64 `json:"flash_reads"`
	SingleflightHits uint64 `json:"singleflight_hits"` // coalesced onto an in-flight read
	RetainedHits     uint64 `json:"retained_hits"`     // served from the retained-payload LRU
	BytesRead        int64  `json:"bytes_read"`
	BytesSaved       int64  `json:"bytes_saved"`
	RetainedBytes    int64  `json:"retained_bytes"` // current residency, both segments
	Evictions        uint64 `json:"evictions"`

	Prefetches      uint64 `json:"prefetches"`       // speculative flash reads issued
	PrefetchHits    uint64 `json:"prefetch_hits"`    // prefetched payloads demand later consumed
	PrefetchWasted  uint64 `json:"prefetch_wasted"`  // prefetched payloads never demanded
	PrefetchedBytes int64  `json:"prefetched_bytes"` // current second-class segment residency

	PeerFetches     uint64 `json:"peer_fetches"`      // peer-level lookups attempted on demand misses
	PeerHits        uint64 `json:"peer_hits"`         // demand misses a peer's retained copy satisfied
	PeerBytes       int64  `json:"peer_bytes"`        // bytes served by peers instead of local flash
	PeerServed      uint64 `json:"peer_served"`       // retained payloads this cache served to peers
	PeerServedBytes int64  `json:"peer_served_bytes"` // bytes this cache served to peers
}

// Hits is the total number of reads the cache absorbed without
// touching local flash.
func (s CacheStats) Hits() uint64 {
	return s.SingleflightHits + s.RetainedHits + s.PrefetchHits + s.PeerHits
}

// SharedCache is a read-through, content-addressed payload cache that
// fronts one store for many concurrent readers — the replica pools of
// internal/replica all stream through one SharedCache so K engines
// executing the same plan cost ~1× flash IO, not K×.
//
// Two mechanisms stack:
//
//   - Single-flight: concurrent ReadShardPayload calls for the same
//     shard version coalesce onto one flash read; every waiter gets the
//     same (shared, immutable) byte slice.
//   - Retention: completed payloads are kept in a byte-bounded LRU so
//     near-concurrent readers — replicas whose layer streams are a few
//     layers apart — still dedupe. retainBytes 0 disables retention,
//     leaving pure single-flight semantics.
//
// An optional third mechanism (SetPeerFetch) turns the cache into the
// first level of a cluster-wide two-level cache: a demand miss asks a
// peer node holding the payload retained before touching flash. The
// peer lookup rides inside the single flight and its result is
// retained under the same byte budget, so the peer level inherits both
// disciplines for free; Peek is the donor-side read peers use.
//
// A SharedCache is safe for concurrent use. Every flight checks the
// payload's CRC once, whether flash or a peer filled it, so the bytes
// it serves and retains are verified. Failed reads — checksum
// mismatches included — are never cached: every waiter of a failed
// flight observes the error and the next call retries.
//
// Retention is segmented in two classes sharing the one retain budget.
// Demand-retained payloads (completed ReadShardPayload results) live on
// the primary LRU. Speculatively prefetched payloads
// (PrefetchShardPayload) live on a second-class LRU: they are always
// evicted before any demand entry, a prefetch insert never displaces a
// demand entry (it is refused instead), and a demand read that finds a
// prefetched payload promotes it into the demand segment (counting a
// PrefetchHit). Mispredicted prefetch therefore costs only its own
// flash read and the budget slack demand was not using.
type SharedCache struct {
	src PayloadReader

	mu        sync.Mutex
	peer      PeerFetch // optional second level, consulted on demand miss before src
	retain    int64
	flights   map[payloadKey]*flight
	cache     map[payloadKey]*list.Element
	lru       *list.List // of *cacheEntry, demand segment; front = least recently used
	pref      *list.List // of *cacheEntry, second-class prefetch segment; front = LRU
	bytes     int64      // demand-segment residency
	prefBytes int64      // prefetch-segment residency
	stats     CacheStats
}

// cacheEntry is one retained payload on either LRU list.
type cacheEntry struct {
	key        payloadKey
	payload    []byte
	prefetched bool // lives on the second-class prefetch list
}

// NewSharedCache fronts src with a single-flight payload cache
// retaining up to retainBytes of completed payloads (0 = coalesce
// concurrent reads only, retain nothing).
func NewSharedCache(src PayloadReader, retainBytes int64) *SharedCache {
	if retainBytes < 0 {
		retainBytes = 0
	}
	return &SharedCache{
		src:     src,
		retain:  retainBytes,
		flights: make(map[payloadKey]*flight),
		cache:   make(map[payloadKey]*list.Element),
		lru:     list.New(),
		pref:    list.New(),
	}
}

// SetRetain resizes the retention budget, evicting least recently used
// payloads to fit. 0 drops every retained payload, leaving pure
// single-flight coalescing.
func (c *SharedCache) SetRetain(retainBytes int64) {
	if retainBytes < 0 {
		retainBytes = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retain = retainBytes
	c.evictToLocked(c.retain)
}

// Drop releases every retained payload (the cache's shutdown when its
// model leaves a fleet); in-flight coalescing keeps working.
func (c *SharedCache) Drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictToLocked(0)
}

// evictToLocked evicts retained payloads until at most limit bytes
// remain across both segments. The second-class prefetch segment is
// drained first (LRU order); demand entries are touched only once no
// prefetched payload remains — speculation never outlives demand.
func (c *SharedCache) evictToLocked(limit int64) {
	for c.bytes+c.prefBytes > limit {
		el := c.pref.Front()
		if el == nil {
			break
		}
		c.removeLocked(el)
	}
	for c.bytes > limit {
		el := c.lru.Front()
		if el == nil {
			return
		}
		c.removeLocked(el)
	}
}

func (c *SharedCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	if e.prefetched {
		c.pref.Remove(el)
		c.prefBytes -= int64(len(e.payload))
		c.stats.PrefetchWasted++ // evicted without ever being demanded
	} else {
		c.lru.Remove(el)
		c.bytes -= int64(len(e.payload))
	}
	delete(c.cache, e.key)
	c.stats.Evictions++
}

// PeerFetch is the optional second cache level: given a shard's
// content address it returns the payload if some peer has it retained,
// or ok=false when no peer can serve it (the caller then falls through
// to flash). Implementations do network IO and are always invoked
// outside the cache lock, within the single flight for the key — so a
// peer is asked at most once per miss no matter how many readers pile
// onto the shard.
type PeerFetch func(layer, slice, bits int) (payload []byte, ok bool)

// SetPeerFetch installs (or, with nil, removes) the peer level. Safe
// to call concurrently with reads; in-progress flights keep whatever
// fetcher they started with.
func (c *SharedCache) SetPeerFetch(fn PeerFetch) {
	c.mu.Lock()
	c.peer = fn
	c.mu.Unlock()
}

// Peek reports a retained payload without any IO or retention churn:
// no flash fallthrough, no LRU reordering, no prefetch promotion. It
// is the donor side of the peer level — a peer's miss must not
// reshuffle this node's eviction order or trigger flash reads on the
// peer's behalf.
func (c *SharedCache) Peek(layer, slice, bits int) ([]byte, bool) {
	k := payloadKey{Layer: layer, Slice: slice, Bits: bits}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.cache[k]
	if !ok {
		return nil, false
	}
	p := el.Value.(*cacheEntry).payload
	c.stats.PeerServed++
	c.stats.PeerServedBytes += int64(len(p))
	return p, true
}

// ReadShardPayload serves one shard payload: from the retained LRU,
// by joining an in-flight read of the same shard, by asking a peer
// that has it retained (when a peer level is installed), or by reading
// the backing store (becoming the flight others join).
func (c *SharedCache) ReadShardPayload(layer, slice, bits int) ([]byte, error) {
	p, _, err := c.ReadShardPayloadOrigin(layer, slice, bits)
	return p, err
}

// ReadShardPayloadOrigin is ReadShardPayload plus where the bytes came
// from (OriginCache for retained or coalesced hits, OriginPrefetch for
// a speculatively prefetched payload consumed by demand, OriginPeer,
// OriginFlash) — the tag execution engines stamp on shard-IO trace
// spans. Implements OriginReader.
func (c *SharedCache) ReadShardPayloadOrigin(layer, slice, bits int) ([]byte, string, error) {
	k := payloadKey{Layer: layer, Slice: slice, Bits: bits}
	c.mu.Lock()
	c.stats.Requests++
	if el, ok := c.cache[k]; ok {
		e := el.Value.(*cacheEntry)
		p := e.payload
		origin := OriginCache
		if e.prefetched {
			// A demanded prefetch graduates to the demand segment: the
			// speculation paid off, so the payload is no longer
			// first-to-evict.
			c.pref.Remove(el)
			e.prefetched = false
			c.cache[k] = c.lru.PushBack(e)
			c.prefBytes -= int64(len(p))
			c.bytes += int64(len(p))
			c.stats.PrefetchHits++
			origin = OriginPrefetch
		} else {
			c.lru.MoveToBack(el)
			c.stats.RetainedHits++
		}
		c.stats.BytesSaved += int64(len(p))
		c.mu.Unlock()
		return p, origin, nil
	}
	if f, ok := c.flights[k]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			// A failed flight is not a dedup win: every waiter saw the
			// error and nothing was read on their behalf, so counting
			// it would overstate the hit rate under IO errors.
			return nil, "", f.err
		}
		c.mu.Lock()
		c.stats.SingleflightHits++
		c.stats.BytesSaved += int64(len(f.payload))
		c.mu.Unlock()
		return f.payload, OriginCache, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	peer := c.peer
	c.mu.Unlock()

	// Second level: within the flight (so a peer is asked once per miss,
	// however many readers coalesced) and outside the lock (a slow or
	// dead peer stalls only this shard's readers, never the cache). A
	// peer answers purely from its own retained set — the miss falls
	// through to local flash, never to a peer's flash.
	fromPeer := false
	if peer != nil {
		if p, ok := peer(layer, slice, bits); ok && len(p) > 0 {
			f.payload, fromPeer = p, true
		}
	}
	if !fromPeer {
		f.payload, f.err = c.src.ReadShardPayload(layer, slice, bits)
	}
	f.verify()
	close(f.done)

	c.mu.Lock()
	delete(c.flights, k)
	if f.err == nil {
		if fromPeer {
			c.stats.PeerHits++
			c.stats.PeerBytes += int64(len(f.payload))
		} else {
			c.stats.FlashReads++
			c.stats.BytesRead += int64(len(f.payload))
		}
		// Either way the payload was demanded: retain it in the demand
		// segment under the same byte budget (peer-fetched bytes never
		// overshoot it — exactly as subordinate as prefetch).
		c.insertLocked(k, f.payload)
	}
	if peer != nil {
		c.stats.PeerFetches++
	}
	c.mu.Unlock()
	origin := OriginFlash
	if fromPeer {
		origin = OriginPeer
	}
	return f.payload, origin, f.err
}

// insertLocked retains one completed payload in the demand segment,
// evicting least recently used entries (prefetched first) until it
// fits. Payloads larger than the whole retention budget are not
// retained (they would evict everything for one entry).
func (c *SharedCache) insertLocked(k payloadKey, p []byte) {
	need := int64(len(p))
	if need == 0 || need > c.retain {
		return
	}
	if el, ok := c.cache[k]; ok {
		// A racing flight or prefetch of the same key already retained
		// it; if speculation got there first, the demand completion
		// promotes it out of the second-class segment.
		if e := el.Value.(*cacheEntry); e.prefetched {
			c.pref.Remove(el)
			e.prefetched = false
			c.cache[k] = c.lru.PushBack(e)
			c.prefBytes -= int64(len(e.payload))
			c.bytes += int64(len(e.payload))
			c.stats.PrefetchHits++
		}
		return
	}
	c.evictToLocked(c.retain - need)
	c.cache[k] = c.lru.PushBack(&cacheEntry{key: k, payload: p})
	c.bytes += need
}

// PrefetchShardPayload speculatively pulls one shard payload into the
// cache's second-class segment ahead of demand. It is strictly budget-
// subordinate: the payload is retained only if it fits the retain
// budget after evicting other *prefetched* entries — demand-retained
// payloads are never displaced, and an oversized or unfittable payload
// is simply dropped (its read still primed nothing, counted
// PrefetchWasted). Already-retained and already-in-flight keys are
// no-ops, so a prefetcher racing the compute front never duplicates
// IO; a concurrent demand read coalesces onto the prefetch's flight
// exactly like any other reader. It reports whether the payload is
// retained on return.
func (c *SharedCache) PrefetchShardPayload(layer, slice, bits int) (bool, error) {
	k := payloadKey{Layer: layer, Slice: slice, Bits: bits}
	c.mu.Lock()
	if c.retain == 0 {
		c.mu.Unlock()
		return false, nil // nothing can be retained; don't touch flash
	}
	if _, ok := c.cache[k]; ok {
		c.mu.Unlock()
		return true, nil // already retained (either segment)
	}
	if _, ok := c.flights[k]; ok {
		c.mu.Unlock()
		return false, nil // demand is already reading it
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.mu.Unlock()

	f.payload, f.err = c.src.ReadShardPayload(layer, slice, bits)
	f.verify()
	close(f.done)

	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.flights, k)
	if f.err != nil {
		return false, f.err
	}
	c.stats.FlashReads++
	c.stats.BytesRead += int64(len(f.payload))
	c.stats.Prefetches++
	need := int64(len(f.payload))
	if need == 0 || need > c.retain {
		c.stats.PrefetchWasted++
		return false, nil
	}
	if _, ok := c.cache[k]; ok {
		return true, nil // a racing demand flight retained it meanwhile
	}
	// Make room with other prefetched payloads only; if demand retention
	// alone already fills the budget, the speculation loses.
	for c.bytes+c.prefBytes+need > c.retain {
		el := c.pref.Front()
		if el == nil {
			break
		}
		c.removeLocked(el)
	}
	if c.bytes+c.prefBytes+need > c.retain {
		c.stats.PrefetchWasted++
		return false, nil
	}
	c.cache[k] = c.pref.PushBack(&cacheEntry{key: k, payload: f.payload, prefetched: true})
	c.prefBytes += need
	return true, nil
}

// Stats snapshots the cache's counters.
func (c *SharedCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.RetainedBytes = c.bytes + c.prefBytes
	s.PrefetchedBytes = c.prefBytes
	return s
}
