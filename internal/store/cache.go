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
type CacheStats struct {
	Requests         uint64 `json:"requests"`
	FlashReads       uint64 `json:"flash_reads"`
	SingleflightHits uint64 `json:"singleflight_hits"` // coalesced onto an in-flight read
	RetainedHits     uint64 `json:"retained_hits"`     // served from the retained-payload LRU
	BytesRead        int64  `json:"bytes_read"`
	BytesSaved       int64  `json:"bytes_saved"`
	RetainedBytes    int64  `json:"retained_bytes"` // current residency
	Evictions        uint64 `json:"evictions"`

	PeerFetches     uint64 `json:"peer_fetches"`      // peer-level lookups attempted on demand misses
	PeerHits        uint64 `json:"peer_hits"`         // demand misses a peer's retained copy satisfied
	PeerBytes       int64  `json:"peer_bytes"`        // bytes served by peers instead of local flash
	PeerServed      uint64 `json:"peer_served"`       // retained payloads this cache served to peers
	PeerServedBytes int64  `json:"peer_served_bytes"` // bytes this cache served to peers
}

// Hits is the total number of reads the cache absorbed without
// touching local flash.
func (s CacheStats) Hits() uint64 {
	return s.SingleflightHits + s.RetainedHits + s.PeerHits
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
type SharedCache struct {
	src PayloadReader

	mu      sync.Mutex
	peer    PeerFetch // optional second level, consulted on miss before src
	retain  int64
	flights map[payloadKey]*flight
	cache   map[payloadKey]*list.Element
	lru     *list.List // of *cacheEntry; front = least recently used
	bytes   int64      // retained residency
	stats   CacheStats
}

// cacheEntry is one retained payload on the LRU list.
type cacheEntry struct {
	key     payloadKey
	payload []byte
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

// evictToLocked evicts least recently used payloads until at most
// limit bytes remain retained.
func (c *SharedCache) evictToLocked(limit int64) {
	for c.bytes > limit {
		el := c.lru.Front()
		if el == nil {
			return
		}
		e := c.lru.Remove(el).(*cacheEntry)
		c.bytes -= int64(len(e.payload))
		delete(c.cache, e.key)
		c.stats.Evictions++
	}
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
// no flash fallthrough, no LRU reordering. It
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
// from (OriginCache for retained or coalesced hits, OriginPeer,
// OriginFlash) — the tag execution engines stamp on shard-IO trace
// spans. Implements OriginReader.
func (c *SharedCache) ReadShardPayloadOrigin(layer, slice, bits int) ([]byte, string, error) {
	k := payloadKey{Layer: layer, Slice: slice, Bits: bits}
	c.mu.Lock()
	c.stats.Requests++
	if el, ok := c.cache[k]; ok {
		p := el.Value.(*cacheEntry).payload
		c.lru.MoveToBack(el)
		c.stats.RetainedHits++
		c.stats.BytesSaved += int64(len(p))
		c.mu.Unlock()
		return p, OriginCache, nil
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
		// Either way retain it under the same byte budget: peer-fetched
		// bytes never overshoot it.
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

// insertLocked retains one completed payload, evicting least recently
// used entries until it fits. Payloads larger than the whole retention
// budget are not retained (they would evict everything for one entry).
func (c *SharedCache) insertLocked(k payloadKey, p []byte) {
	need := int64(len(p))
	if need == 0 || need > c.retain {
		return
	}
	c.evictToLocked(c.retain - need)
	c.cache[k] = c.lru.PushBack(&cacheEntry{key: k, payload: p})
	c.bytes += need
}

// Stats snapshots the cache's counters.
func (c *SharedCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.RetainedBytes = c.bytes
	return s
}
