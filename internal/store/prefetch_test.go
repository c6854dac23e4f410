package store

import (
	"sync"
	"testing"
)

// TestSharedCachePrefetchEvictsBeforeDemand: prefetched entries form a
// second-class segment — a SetRetain shrink (and any other eviction)
// drains them before touching a single demand-retained payload.
func TestSharedCachePrefetchEvictsBeforeDemand(t *testing.T) {
	src := &countingReader{}
	c := NewSharedCache(src, 4*fakeLen) // four payloads

	demand := func(l int) {
		t.Helper()
		if _, err := c.ReadShardPayload(l, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	prefetch := func(l int) bool {
		t.Helper()
		kept, err := c.PrefetchShardPayload(l, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		return kept
	}

	demand(0)
	demand(1)
	if !prefetch(2) || !prefetch(3) {
		t.Fatal("prefetches within budget were not kept")
	}
	st := c.Stats()
	if st.PrefetchedBytes != 2*fakeLen || st.RetainedBytes != 4*fakeLen {
		t.Fatalf("segments: prefetched=%d retained=%d, want %d/%d", st.PrefetchedBytes, st.RetainedBytes, 2*fakeLen, 4*fakeLen)
	}

	// Shrink by one payload: a prefetched entry must go, never demand.
	c.SetRetain(3 * fakeLen)
	st = c.Stats()
	if st.PrefetchedBytes != fakeLen {
		t.Fatalf("after shrink to three payloads: prefetched=%d, want %d (one prefetch evicted)", st.PrefetchedBytes, fakeLen)
	}
	if st.PrefetchWasted != 1 {
		t.Fatalf("PrefetchWasted=%d, want 1", st.PrefetchWasted)
	}
	before := src.reads.Load()
	demand(0)
	demand(1)
	if src.reads.Load() != before {
		t.Fatal("demand-retained payloads were evicted while prefetched entries remained")
	}

	// Shrink below the demand residency: remaining prefetch drains
	// first, then demand LRU order applies.
	c.SetRetain(fakeLen)
	st = c.Stats()
	if st.PrefetchedBytes != 0 {
		t.Fatalf("after shrink to one payload: prefetched=%d, want 0", st.PrefetchedBytes)
	}
	if st.RetainedBytes > fakeLen {
		t.Fatalf("RetainedBytes=%d over budget %d", st.RetainedBytes, fakeLen)
	}
	before = src.reads.Load()
	demand(1) // most recently used demand entry must have survived
	if src.reads.Load() != before {
		t.Fatal("MRU demand entry evicted before LRU one")
	}
}

// TestSharedCachePrefetchPromoteOnDemandHit: a demand read that lands
// on a prefetched entry counts a PrefetchHit, costs no flash read, and
// promotes the entry to the demand segment (first-class from then on).
func TestSharedCachePrefetchPromoteOnDemandHit(t *testing.T) {
	src := &countingReader{}
	c := NewSharedCache(src, 4*fakeLen)

	if kept, err := c.PrefetchShardPayload(5, 0, 4); err != nil || !kept {
		t.Fatalf("prefetch kept=%v err=%v", kept, err)
	}
	before := src.reads.Load()
	if _, err := c.ReadShardPayload(5, 0, 4); err != nil {
		t.Fatal(err)
	}
	if src.reads.Load() != before {
		t.Fatal("demand read of a prefetched payload hit flash")
	}
	st := c.Stats()
	if st.PrefetchHits != 1 {
		t.Fatalf("PrefetchHits=%d, want 1", st.PrefetchHits)
	}
	if st.PrefetchedBytes != 0 {
		t.Fatalf("PrefetchedBytes=%d after promotion, want 0", st.PrefetchedBytes)
	}
	// Now first-class: a later prefetched entry must evict before it.
	if kept, err := c.PrefetchShardPayload(6, 0, 4); err != nil || !kept {
		t.Fatalf("prefetch kept=%v err=%v", kept, err)
	}
	c.SetRetain(fakeLen)
	before = src.reads.Load()
	if _, err := c.ReadShardPayload(5, 0, 4); err != nil {
		t.Fatal(err)
	}
	if src.reads.Load() != before {
		t.Fatal("promoted entry evicted before the prefetched one")
	}
}

// TestSharedCachePrefetchNeverDisplacesDemand: with the budget held by
// demand-retained payloads, a prefetch is refused (kept=false, counted
// wasted) rather than evicting demand state or overshooting the byte
// budget — the strict subordination the predictor relies on.
func TestSharedCachePrefetchNeverDisplacesDemand(t *testing.T) {
	src := &countingReader{}
	c := NewSharedCache(src, 2*fakeLen) // exactly two payloads

	for l := 0; l < 2; l++ {
		if _, err := c.ReadShardPayload(l, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := c.PrefetchShardPayload(2, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if kept {
		t.Fatal("prefetch claimed to be kept with the budget full of demand payloads")
	}
	st := c.Stats()
	if st.RetainedBytes > 2*fakeLen {
		t.Fatalf("RetainedBytes=%d exceeds budget %d after refused prefetch", st.RetainedBytes, 2*fakeLen)
	}
	if st.PrefetchWasted == 0 {
		t.Fatal("refused prefetch not counted as wasted")
	}
	before := src.reads.Load()
	for l := 0; l < 2; l++ {
		if _, err := c.ReadShardPayload(l, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	if src.reads.Load() != before {
		t.Fatal("a demand-retained payload was displaced by a prefetch")
	}

	// With retention off entirely, prefetch must not even touch flash.
	c.SetRetain(0)
	flash := src.reads.Load()
	if kept, err := c.PrefetchShardPayload(3, 0, 4); err != nil || kept {
		t.Fatalf("zero-retention prefetch kept=%v err=%v", kept, err)
	}
	if src.reads.Load() != flash {
		t.Fatal("zero-retention prefetch read flash for a payload it could never keep")
	}
}

// TestSharedCacheStatsRace hammers Stats against concurrent demand
// reads, prefetches, Drop and SetRetain — the serve-layer snapshot
// path races all of these in production (run under -race).
func TestSharedCacheStatsRace(t *testing.T) {
	src := &countingReader{}
	c := NewSharedCache(src, 64)

	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(5)
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
		for i := 0; i < iters; i++ {
			if _, err := c.PrefetchShardPayload(i%16, 1, 4); err != nil {
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
