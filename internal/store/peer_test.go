package store

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestSharedCachePeerLevelHitAvoidsFlash: a demand miss with a peer
// level installed is served from the peer's retained set without
// touching local flash, and the fetched payload is retained locally
// like any demanded read.
func TestSharedCachePeerLevelHitAvoidsFlash(t *testing.T) {
	donorSrc := &countingReader{}
	donor := NewSharedCache(donorSrc, 1<<20)
	if _, err := donor.ReadShardPayload(1, 2, 4); err != nil {
		t.Fatal(err)
	}

	localSrc := &countingReader{}
	local := NewSharedCache(localSrc, 1<<20)
	local.SetPeerFetch(func(layer, slice, bits int) ([]byte, bool) {
		return donor.Peek(layer, slice, bits)
	})

	p, err := local.ReadShardPayload(1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, fake(1, 2, 4)) {
		t.Fatalf("payload %v", p)
	}
	if got := localSrc.reads.Load(); got != 0 {
		t.Fatalf("local flash read %d times on a peer hit, want 0", got)
	}
	st := local.Stats()
	if st.PeerFetches != 1 || st.PeerHits != 1 || st.PeerBytes != fakeLen || st.FlashReads != 0 {
		t.Fatalf("local stats %+v: want 1 peer fetch = 1 hit, %d bytes, 0 flash reads", st, fakeLen)
	}
	ds := donor.Stats()
	if ds.PeerServed != 1 || ds.PeerServedBytes != fakeLen {
		t.Fatalf("donor stats %+v: want 1 payload / %d bytes served to peers", ds, fakeLen)
	}

	// The peer-fetched payload was demanded, so it is retained: the
	// next read is a local retained hit, no second peer round-trip.
	if _, err := local.ReadShardPayload(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	st = local.Stats()
	if st.RetainedHits != 1 || st.PeerFetches != 1 {
		t.Fatalf("stats %+v: want retained hit without a second peer fetch", st)
	}

	// A key the peer does not hold falls through to local flash.
	if _, err := local.ReadShardPayload(9, 9, 4); err != nil {
		t.Fatal(err)
	}
	if got := localSrc.reads.Load(); got != 1 {
		t.Fatalf("local flash reads %d, want 1 after peer miss", got)
	}
	st = local.Stats()
	if st.PeerFetches != 2 || st.PeerHits != 1 || st.FlashReads != 1 {
		t.Fatalf("stats %+v: want attempted-but-missed peer fetch then flash", st)
	}
}

// TestSharedCachePeerLevelSingleFlight: concurrent demand readers of
// one shard coalesce onto a single peer lookup — the peer is asked
// once per miss, not once per reader.
func TestSharedCachePeerLevelSingleFlight(t *testing.T) {
	local := NewSharedCache(&countingReader{}, 0) // retention off: every read is a miss
	gate := make(chan struct{})
	var fetches sync.Map
	var nfetch int
	var mu sync.Mutex
	local.SetPeerFetch(func(layer, slice, bits int) ([]byte, bool) {
		mu.Lock()
		nfetch++
		mu.Unlock()
		fetches.Store([3]int{layer, slice, bits}, true)
		<-gate
		return fake(7, 7, 7), true
	})

	const callers = 6
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = local.ReadShardPayload(3, 0, 4)
		}(i)
	}
	for local.Stats().Requests < callers {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	mu.Lock()
	got := nfetch
	mu.Unlock()
	if got != 1 {
		t.Fatalf("peer asked %d times for %d concurrent readers, want 1", got, callers)
	}
	for i := range results {
		if !bytes.Equal(results[i], fake(7, 7, 7)) {
			t.Fatalf("caller %d got %v", i, results[i])
		}
	}
	st := local.Stats()
	if st.PeerHits != 1 || st.SingleflightHits != callers-1 {
		t.Fatalf("stats %+v: want 1 peer hit, %d coalesced readers", st, callers-1)
	}
}

// TestSharedCachePeerLevelBudgetSubordinate: peer-fetched payloads are
// retained under the same byte budget as everything else — a payload
// larger than the budget is served but never retained past it.
func TestSharedCachePeerLevelBudgetSubordinate(t *testing.T) {
	big := fake(make([]byte, 124)...) // 128 bytes framed
	local := NewSharedCache(&countingReader{}, 64)
	local.SetPeerFetch(func(layer, slice, bits int) ([]byte, bool) { return big, true })

	p, err := local.ReadShardPayload(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != len(big) {
		t.Fatalf("payload %d bytes, want %d", len(p), len(big))
	}
	st := local.Stats()
	if st.RetainedBytes != 0 {
		t.Fatalf("retained %d bytes with a 64-byte budget: peer bytes overshot the budget", st.RetainedBytes)
	}
	if st.PeerHits != 1 {
		t.Fatalf("stats %+v: oversized peer payload must still serve the read", st)
	}
}

// TestSharedCachePeekIsInert: the donor-side Peek neither reorders the
// LRU nor falls through to flash — a peer's traffic cannot reshape
// this node's cache.
func TestSharedCachePeekIsInert(t *testing.T) {
	src := &countingReader{}
	c := NewSharedCache(src, 2*fakeLen)
	for l := 5; l <= 6; l++ {
		if _, err := c.ReadShardPayload(l, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	reads := src.reads.Load()

	p, ok := c.Peek(5, 0, 4)
	if !ok || !bytes.Equal(p, fake(5, 0, 4)) {
		t.Fatalf("Peek = %v, %v", p, ok)
	}
	if src.reads.Load() != reads {
		t.Fatal("Peek touched flash")
	}
	// A third payload evicts the least recently used one, which is still
	// layer 5: the Peek did not touch it.
	if _, err := c.ReadShardPayload(7, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek(5, 0, 4); ok {
		t.Fatal("Peek moved the payload it served up the LRU")
	}
	if _, ok := c.Peek(8, 8, 8); ok {
		t.Fatal("Peek invented a payload it does not retain")
	}
}
