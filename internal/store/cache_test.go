package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sti/internal/model"
)

// fakeLen is the size of countingReader's payloads: a 3-byte body that
// names the key, plus the CRC32 trailer the cache verifies on fill.
const fakeLen = 7

// fake frames body as a payload that passes VerifyPayload.
func fake(body ...byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// countingReader is a PayloadReader that counts real reads and can
// block them so tests control flight overlap.
type countingReader struct {
	reads   atomic.Int64
	gate    chan struct{} // when non-nil, reads block until closed
	err     error
	payload []byte
}

func (r *countingReader) ReadShardPayload(layer, slice, bits int) ([]byte, error) {
	r.reads.Add(1)
	if r.gate != nil {
		<-r.gate
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.payload != nil {
		return r.payload, nil
	}
	// Distinct payload per key so callers can verify routing.
	return fake(byte(layer), byte(slice), byte(bits)), nil
}

func TestSharedCacheSingleFlightCoalesces(t *testing.T) {
	src := &countingReader{gate: make(chan struct{})}
	c := NewSharedCache(src, 0) // retention off: pure single-flight

	const callers = 8
	results := make([][]byte, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.ReadShardPayload(1, 2, 4)
		}(i)
	}
	// Release the gate only once every follower has registered on the
	// leader's flight (the leader is parked inside the store, so the
	// flight cannot complete underneath them). Requests is counted at
	// entry, before a follower parks on the flight.
	for c.Stats().Requests < callers {
		runtime.Gosched()
	}
	close(src.gate)
	wg.Wait()

	if got := src.reads.Load(); got != 1 {
		t.Fatalf("store read %d times for %d concurrent callers, want 1", got, callers)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], fake(1, 2, 4)) {
			t.Fatalf("caller %d got %v", i, results[i])
		}
	}
	st := c.Stats()
	if st.FlashReads != 1 || st.SingleflightHits != callers-1 {
		t.Fatalf("stats %+v: want 1 flash read, %d singleflight hits", st, callers-1)
	}
	if st.BytesSaved != int64((callers-1)*fakeLen) {
		t.Fatalf("BytesSaved %d, want %d", st.BytesSaved, (callers-1)*fakeLen)
	}

	// Retention is off: a later read goes back to the store.
	if _, err := c.ReadShardPayload(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	if got := src.reads.Load(); got != 2 {
		t.Fatalf("zero-retention cache re-read %d times, want 2", got)
	}
}

func TestSharedCacheRetainsWithinBudget(t *testing.T) {
	src := &countingReader{}
	const budget = 2*fakeLen + 2 // room for two payloads, not three
	c := NewSharedCache(src, budget)

	read := func(l int) {
		t.Helper()
		if _, err := c.ReadShardPayload(l, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	read(0)
	read(0) // retained hit
	if got := src.reads.Load(); got != 1 {
		t.Fatalf("store read %d times, want 1 (second read retained)", got)
	}
	read(1)
	read(2) // evicts the LRU entry (layer 0)
	st := c.Stats()
	if st.RetainedBytes > budget {
		t.Fatalf("retained %d bytes over budget %d", st.RetainedBytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("expected an LRU eviction past the retention budget")
	}
	read(0) // evicted: back to the store
	if got := src.reads.Load(); got != 4 {
		t.Fatalf("store read %d times, want 4 (layer 0 was evicted)", got)
	}
}

func TestSharedCacheLRUTouchOnHit(t *testing.T) {
	src := &countingReader{}
	c := NewSharedCache(src, 2*fakeLen) // exactly two payloads

	mustRead := func(l int) {
		t.Helper()
		if _, err := c.ReadShardPayload(l, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	mustRead(0)
	mustRead(1)
	mustRead(0) // touch: layer 0 becomes most recent
	mustRead(2) // must evict layer 1, not layer 0
	before := src.reads.Load()
	mustRead(0)
	if src.reads.Load() != before {
		t.Fatal("layer 0 was evicted despite being most recently used")
	}
}

// TestSharedCacheSetRetainAndDrop: the retention window is resizable
// downward (evicting to fit) and Drop releases every retained byte
// while coalescing keeps working.
func TestSharedCacheSetRetainAndDrop(t *testing.T) {
	src := &countingReader{}
	c := NewSharedCache(src, 1<<10)
	for l := 0; l < 4; l++ {
		if _, err := c.ReadShardPayload(l, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.RetainedBytes != 4*fakeLen {
		t.Fatalf("retained %d bytes, want %d (4 payloads)", st.RetainedBytes, 4*fakeLen)
	}
	c.SetRetain(2 * fakeLen)
	if st := c.Stats(); st.RetainedBytes > 2*fakeLen {
		t.Fatalf("retained %d bytes after SetRetain(%d)", st.RetainedBytes, 2*fakeLen)
	}
	c.Drop()
	if st := c.Stats(); st.RetainedBytes != 0 {
		t.Fatalf("retained %d bytes after Drop, want 0", st.RetainedBytes)
	}
	// Still serves (and re-retains under the smaller window).
	if _, err := c.ReadShardPayload(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RetainedBytes != fakeLen {
		t.Fatalf("retained %d bytes after post-Drop read, want %d", st.RetainedBytes, fakeLen)
	}
}

// TestSharedCacheSetRetainEvictsLeastRecent: a SetRetain shrink evicts
// the least recently used payloads first, so the most recently used
// ones are still served without another flash read.
func TestSharedCacheSetRetainEvictsLeastRecent(t *testing.T) {
	src := &countingReader{}
	c := NewSharedCache(src, 4*fakeLen) // four payloads
	for l := 0; l < 4; l++ {
		if _, err := c.ReadShardPayload(l, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	c.SetRetain(2 * fakeLen)
	if st := c.Stats(); st.RetainedBytes != 2*fakeLen {
		t.Fatalf("retained %d bytes after SetRetain(%d), want %d", st.RetainedBytes, 2*fakeLen, 2*fakeLen)
	}
	before := src.reads.Load()
	for l := 2; l < 4; l++ { // the two most recently used survive the shrink
		if _, err := c.ReadShardPayload(l, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	if src.reads.Load() != before {
		t.Fatal("SetRetain evicted a recently used payload before the least recently used ones")
	}
	if _, err := c.ReadShardPayload(0, 0, 4); err != nil { // evicted: read again
		t.Fatal(err)
	}
	if src.reads.Load() != before+1 {
		t.Fatalf("flash reads %d after re-reading an evicted payload, want %d", src.reads.Load(), before+1)
	}
}

func TestSharedCacheErrorNotCached(t *testing.T) {
	boom := errors.New("flash died")
	src := &countingReader{err: boom}
	c := NewSharedCache(src, 1<<10)

	if _, err := c.ReadShardPayload(0, 0, 4); !errors.Is(err, boom) {
		t.Fatalf("err %v, want %v", err, boom)
	}
	src.err = nil
	p, err := c.ReadShardPayload(0, 0, 4)
	if err != nil {
		t.Fatalf("retry after transient error: %v", err)
	}
	if !bytes.Equal(p, fake(0, 0, 4)) {
		t.Fatalf("retry payload %v", p)
	}
	if got := src.reads.Load(); got != 2 {
		t.Fatalf("store read %d times, want 2 (error must not be cached)", got)
	}
}

// TestSharedCacheServesRealStore is the integration check: payloads
// through the cache are byte-identical to direct store reads.
func TestSharedCacheServesRealStore(t *testing.T) {
	dir := t.TempDir()
	w := model.NewRandom(model.Tiny(), 11)
	if _, err := Preprocess(dir, w, []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSharedCache(st, 1<<20)
	for pass := 0; pass < 2; pass++ {
		for l := 0; l < st.Man.Config.Layers; l++ {
			for s := 0; s < st.Man.Config.Heads; s++ {
				direct, err := st.ReadShardPayload(l, s, 4)
				if err != nil {
					t.Fatal(err)
				}
				cached, err := c.ReadShardPayload(l, s, 4)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(direct, cached) {
					t.Fatalf("pass %d shard (%d,%d): cached payload differs from store", pass, l, s)
				}
			}
		}
	}
	stats := c.Stats()
	shards := uint64(st.Man.Config.Layers * st.Man.Config.Heads)
	if stats.FlashReads != shards || stats.RetainedHits != shards {
		t.Fatalf("stats %+v: want %d flash reads and %d retained hits", stats, shards, shards)
	}
}

// TestSharedCacheStatsRace hammers Stats against concurrent demand
// reads, Drop and SetRetain — the serve-layer snapshot
// path races all of these in production (run under -race).
func TestSharedCacheStatsRace(t *testing.T) {
	src := &countingReader{}
	c := NewSharedCache(src, 64)

	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			st := c.Stats()
			if st.RetainedBytes < 0 {
				t.Error("negative residency")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := c.ReadShardPayload(i%8, 0, 4); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			c.Drop()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			c.SetRetain(int64(16 + (i%4)*16))
		}
	}()
	wg.Wait()

	st := c.Stats()
	if st.RetainedBytes > 64 {
		t.Fatalf("RetainedBytes=%d exceeded the largest budget 64", st.RetainedBytes)
	}
}
