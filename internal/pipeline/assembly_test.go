package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"sti/internal/model"
	"sti/internal/planner"
	"sti/internal/shard"
	"sti/internal/store"
)

// fixedPlan builds a depth×width plan without the planner: layer l
// takes slices rotated by l (so a shard's position differs from its
// slice index) at bitwidths cycling through bits. Nothing is preloaded.
func fixedPlan(cfg model.Config, depth, width int, bits []int) *planner.Plan {
	p := &planner.Plan{Depth: depth, Width: width, Target: time.Duration(width) * time.Millisecond}
	for l := 0; l < depth; l++ {
		slices, bw := make([]int, width), make([]int, width)
		for j := range slices {
			slices[j] = (l + j) % cfg.Heads
			bw[j] = bits[(l+j)%len(bits)]
		}
		p.Slices = append(p.Slices, slices)
		p.Bits = append(p.Bits, bw)
		p.Preloaded = append(p.Preloaded, make([]bool, width))
	}
	return p
}

// widthPlans is one plan per width 1..Heads over every stored fidelity.
func widthPlans(cfg model.Config) []*planner.Plan {
	var plans []*planner.Plan
	for w := 1; w <= cfg.Heads; w++ {
		plans = append(plans, fixedPlan(cfg, cfg.Layers-(w%2), w, []int{shard.FullBits, 2, 4, 6}))
	}
	return plans
}

// legacySubmodel assembles p the way the engine did before views:
// decode each payload to an owned slice, unflatten it into shard
// matrices, and copy those into a freshly allocated sub-layer.
func legacySubmodel(t *testing.T, eng *Engine, p *planner.Plan) *model.Submodel {
	t.Helper()
	cfg := eng.Resident.Cfg
	sm := &model.Submodel{Cfg: cfg, Parent: eng.Resident}
	for l := 0; l < p.Depth; l++ {
		shards := make([]*model.ShardWeights, p.Width)
		for j, s := range p.Slices[l] {
			data, err := eng.Store.ReadShardPayload(l, s, p.Bits[l][j])
			if err != nil {
				t.Fatal(err)
			}
			payload, err := store.DecodePayload(data)
			if err != nil {
				t.Fatal(err)
			}
			if shards[j], err = model.UnflattenShard(cfg, l, s, payload.Weights()); err != nil {
				t.Fatal(err)
			}
		}
		sl, err := model.AssembleSubLayer(cfg, eng.Resident.Layers[l], shards)
		if err != nil {
			t.Fatal(err)
		}
		sm.Layers = append(sm.Layers, sl)
	}
	return sm
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

var assemblyInputs = []BatchInput{
	{Tokens: []int{1, 5, 9, 2, 7}},
	{Tokens: []int{3, 3, 8}},
}

// TestAssembleIntoMatchesLegacyAssembly: assembling views straight into
// the workspace gives logits bit-identical to the decode → unflatten →
// assemble chain, at every width and mix of raw and packed shards, and
// so does Materialize.
func TestAssembleIntoMatchesLegacyAssembly(t *testing.T) {
	eng, _, _ := buildTinyEngine(t, 0)
	for _, p := range widthPlans(eng.Resident.Cfg) {
		ref := legacySubmodel(t, eng, p)
		got, _, err := eng.ExecuteBatch(ctxbg, p, assemblyInputs)
		if err != nil {
			t.Fatal(err)
		}
		mat, _, err := eng.Materialize(ctxbg, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range assemblyInputs {
			want := ref.Logits(in.Tokens, nil)
			if !sameBits(got[i], want) {
				t.Fatalf("width %d input %d: workspace logits %v != legacy %v", p.Width, i, got[i], want)
			}
			if m := mat.Logits(in.Tokens, nil); !sameBits(m, want) {
				t.Fatalf("width %d input %d: materialized logits %v != legacy %v", p.Width, i, m, want)
			}
		}
	}
}

// TestMaterializeOwnsItsLayers: a materialized submodel keeps freshly
// allocated sub-layers, so executions that reuse the workspace
// afterwards cannot change what it computes.
func TestMaterializeOwnsItsLayers(t *testing.T) {
	eng, _, _ := buildTinyEngine(t, 0)
	plans := widthPlans(eng.Resident.Cfg)
	wide := plans[len(plans)-1]
	sm, _, err := eng.Materialize(ctxbg, wide)
	if err != nil {
		t.Fatal(err)
	}
	tokens := assemblyInputs[0].Tokens
	before := sm.Logits(tokens, nil)
	for _, p := range plans {
		if _, _, err := eng.ExecuteBatch(ctxbg, p, assemblyInputs); err != nil {
			t.Fatal(err)
		}
	}
	if after := sm.Logits(tokens, nil); !sameBits(before, after) {
		t.Fatalf("materialized logits moved after executions: %v -> %v", before, after)
	}
}

// TestExecuteBatchConcurrentWidthsMatchSerial runs 2×GOMAXPROCS
// concurrent ExecuteBatch calls on one engine across plans of every
// width: each result is bit-identical to a serial run of the same plan,
// so no two executions ever share a workspace. Under -race this also
// proves the per-shard decode goroutines write disjoint memory.
func TestExecuteBatchConcurrentWidthsMatchSerial(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 0)
	eng.SetPayloadSource(store.NewSharedCache(st, 1<<20))
	plans := widthPlans(eng.Resident.Cfg)
	want := make([][][]float32, len(plans))
	for i, p := range plans {
		logits, _, err := eng.ExecuteBatch(ctxbg, p, assemblyInputs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = logits
	}
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(plans); k++ {
				i := (g + k) % len(plans)
				logits, _, err := eng.ExecuteBatch(ctxbg, plans[i], assemblyInputs)
				if err != nil {
					t.Errorf("worker %d plan width %d: %v", g, plans[i].Width, err)
					return
				}
				for b := range logits {
					if !sameBits(logits[b], want[i][b]) {
						t.Errorf("worker %d plan width %d input %d: %v != serial %v", g, plans[i].Width, b, logits[b], want[i][b])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n, max := len(eng.free), runtime.GOMAXPROCS(0); n > max {
		t.Fatalf("%d idle workspaces after the burst, cap is GOMAXPROCS=%d", n, max)
	}
}

// TestWorkspaceFreeListCapped: however many executions overlap, the
// engine keeps at most GOMAXPROCS idle workspaces; the rest go to the
// GC. Concurrency past the cap is forced by holding workspaces out.
func TestWorkspaceFreeListCapped(t *testing.T) {
	eng, _, _ := buildTinyEngine(t, 0)
	max := runtime.GOMAXPROCS(0)
	if cap(eng.free) != max {
		t.Fatalf("free list capacity %d, want GOMAXPROCS=%d", cap(eng.free), max)
	}
	held := make([]*model.SubLayer, 3*max)
	for i := range held {
		held[i] = eng.workspace()
	}
	for _, ws := range held {
		eng.release(ws)
		if n := len(eng.free); n > max {
			t.Fatalf("free list holds %d workspaces, cap is GOMAXPROCS=%d", n, max)
		}
	}
	if n := len(eng.free); n != max {
		t.Fatalf("free list holds %d after releasing %d, want %d", n, len(held), max)
	}
	// A warm execution takes one and gives it back.
	p := widthPlans(eng.Resident.Cfg)[0]
	if _, _, err := eng.ExecuteBatch(ctxbg, p, assemblyInputs); err != nil {
		t.Fatal(err)
	}
	if n := len(eng.free); n != max {
		t.Fatalf("free list holds %d after an execution, want %d", n, max)
	}
}

// TestExecuteBatchAllocsCeiling pins what a warm execution allocates
// (every shard preloaded, one input, the tiny model at full width).
// Views alias the cached bytes and decode into the reused workspace, so
// no weight storage is allocated: what is left is the forward pass, the
// stream's bookkeeping and one goroutine per shard. The decode →
// unflatten → assemble path this replaced took 680 objects and ~770 KB
// per run here; this one takes 380 objects and ~77 KB.
func TestExecuteBatchAllocsCeiling(t *testing.T) {
	eng, _, _ := buildTinyEngine(t, 1<<20)
	cfg := eng.Resident.Cfg
	p := preloadAll(fixedPlan(cfg, cfg.Layers, cfg.Heads, []int{2, 4, 6, shard.FullBits}))
	if err := eng.Warm(p); err != nil {
		t.Fatal(err)
	}
	in := assemblyInputs[:1]
	run := func() {
		if _, _, err := eng.ExecuteBatch(ctxbg, p, in); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const ceiling = 420
	if allocs := testing.AllocsPerRun(20, run); allocs > ceiling {
		t.Fatalf("warm ExecuteBatch allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
	// The old path allocated at least one zeroed full-width sub-layer
	// per layer; this one allocates less than that for the whole plan.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := int64(after.TotalAlloc-before.TotalAlloc) / runs
	subLayer := int64(4 * (4*cfg.Hidden*cfg.Hidden + 2*cfg.Hidden*cfg.FFN))
	if limit := int64(p.Depth) * subLayer; perRun > limit {
		t.Fatalf("warm ExecuteBatch allocates %d bytes, ceiling %d (one full-width sub-layer per layer)", perRun, limit)
	}
}

// corruptReader wraps a PayloadReader and flips one bit of the payload
// of every shard version in bad, handing out a corrupted copy.
type corruptReader struct {
	inner store.PayloadReader
	bad   map[shard.Version]bool
}

func (r *corruptReader) ReadShardPayload(layer, slice, bits int) ([]byte, error) {
	p, err := r.inner.ReadShardPayload(layer, slice, bits)
	if err != nil || !r.bad[shard.Version{ID: shard.ID{Layer: layer, Slice: slice}, Bits: bits}] {
		return p, err
	}
	return flipped(p), nil
}

func flipped(p []byte) []byte {
	c := append([]byte(nil), p...)
	c[len(c)/2] ^= 0x10
	return c
}

// flipLayerFileBit corrupts one shard's payload inside its layer file
// on disk, leaving the file's header and index intact.
func flipLayerFileBit(t *testing.T, st *store.Store, v shard.Version) {
	t.Helper()
	path := filepath.Join(st.Dir, fmt.Sprintf("layer_%02d_bits_%02d.bin", v.Layer, v.Bits))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entry := data[16+16*v.Slice:]
	off, n := binary.LittleEndian.Uint64(entry), binary.LittleEndian.Uint64(entry[8:])
	data[off+n/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// ingressPlan is a two-layer full-width plan whose first shard is the
// version the ingress tests corrupt.
func ingressPlan(cfg model.Config) (*planner.Plan, shard.Version) {
	p := fixedPlan(cfg, 2, cfg.Heads, []int{4, 2})
	return p, shard.Version{ID: shard.ID{Layer: 0, Slice: p.Slices[0][0]}, Bits: p.Bits[0][0]}
}

// preloadAll marks every shard of p preloaded, so Warm reads them all.
func preloadAll(p *planner.Plan) *planner.Plan {
	q := *p
	q.Preloaded = nil
	for l := range p.Slices {
		row := make([]bool, len(p.Slices[l]))
		for j := range row {
			row[j] = true
		}
		q.Preloaded = append(q.Preloaded, row)
	}
	return &q
}

// assertRejected checks that a request and a warm through eng both fail
// with the checksum error, and that neither the engine's preload buffer
// nor cache (when non-nil) holds the corrupt version afterwards.
func assertRejected(t *testing.T, eng *Engine, cache *store.SharedCache, p *planner.Plan, bad shard.Version) {
	t.Helper()
	if _, _, err := eng.ExecuteBatch(ctxbg, p, assemblyInputs); !errors.Is(err, store.ErrChecksum) {
		t.Fatalf("ExecuteBatch err = %v, want the checksum error", err)
	}
	if err := eng.Warm(preloadAll(p)); !errors.Is(err, store.ErrChecksum) {
		t.Fatalf("Warm err = %v, want the checksum error", err)
	}
	if eng.cached(bad) != nil {
		t.Fatalf("corrupt %v entered the preload buffer", bad)
	}
	if cache != nil {
		if _, ok := cache.Peek(bad.Layer, bad.Slice, bad.Bits); ok {
			t.Fatalf("corrupt %v entered the shared cache", bad)
		}
	}
}

// TestIngressRejectsBitFlippedLayerFile: a bit flipped in a layer file
// on flash fails the request with the checksum error, whether the
// engine reads the store directly or through a shared cache.
func TestIngressRejectsBitFlippedLayerFile(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, bad := ingressPlan(eng.Resident.Cfg)
	flipLayerFileBit(t, st, bad)
	assertRejected(t, eng, nil, p, bad)

	cache := store.NewSharedCache(st, 1<<20)
	eng.SetPayloadSource(cache)
	assertRejected(t, eng, cache, p, bad)
}

// TestIngressRejectsCorruptPeerPayload: a peer that answers with
// corrupted bytes fails the request with the checksum error, and the
// bytes are retained nowhere.
func TestIngressRejectsCorruptPeerPayload(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, bad := ingressPlan(eng.Resident.Cfg)
	cache := store.NewSharedCache(st, 1<<20)
	cache.SetPeerFetch(func(layer, slice, bits int) ([]byte, bool) {
		good, err := st.ReadShardPayload(layer, slice, bits)
		if err != nil {
			return nil, false
		}
		if (shard.Version{ID: shard.ID{Layer: layer, Slice: slice}, Bits: bits}) == bad {
			return flipped(good), true
		}
		return good, true
	})
	eng.SetPayloadSource(cache)
	assertRejected(t, eng, cache, p, bad)
}

// TestIngressRejectsCorruptWrappedReader: a wrapping PayloadReader that
// corrupts bytes is caught as the engine's own source and beneath a
// shared cache alike.
func TestIngressRejectsCorruptWrappedReader(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	p, bad := ingressPlan(eng.Resident.Cfg)
	wrapped := &corruptReader{inner: st, bad: map[shard.Version]bool{bad: true}}
	eng.SetPayloadSource(wrapped)
	assertRejected(t, eng, nil, p, bad)

	cache := store.NewSharedCache(wrapped, 1<<20)
	eng.SetPayloadSource(cache)
	assertRejected(t, eng, cache, p, bad)
}

// TestViewsNeverWriteThrough re-checks the CRC of every payload the
// preload buffer and the shared cache hold after many executions over
// read-only views of those very bytes: none was written through.
func TestViewsNeverWriteThrough(t *testing.T) {
	eng, _, st := buildTinyEngine(t, 1<<20)
	cache := store.NewSharedCache(st, 1<<20)
	eng.SetPayloadSource(cache)
	plans := widthPlans(eng.Resident.Cfg)
	if err := eng.Warm(preloadAll(plans[1])); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		for _, p := range plans {
			if _, _, err := eng.ExecuteBatch(ctxbg, p, assemblyInputs); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.mu.Lock()
	preloaded := len(eng.cache)
	for v, payload := range eng.cache {
		if err := store.VerifyPayload(payload); err != nil {
			t.Errorf("preloaded %v after %d executions: %v", v, n, err)
		}
	}
	eng.mu.Unlock()
	if preloaded == 0 {
		t.Fatal("nothing preloaded; the test checks no buffer")
	}
	retained := 0
	for _, p := range plans {
		for l := range p.Slices {
			for j, s := range p.Slices[l] {
				if payload, ok := cache.Peek(l, s, p.Bits[l][j]); ok {
					retained++
					if err := store.VerifyPayload(payload); err != nil {
						t.Errorf("cached (%d,%d)@%d after %d executions: %v", l, s, p.Bits[l][j], n, err)
					}
				}
			}
		}
	}
	if retained == 0 {
		t.Fatal("nothing retained in the shared cache; the test checks no cache")
	}
}
