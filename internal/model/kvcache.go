package model

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"sti/internal/tensor"
)

// Incremental decoding with per-layer key/value caches. Naive
// generation recomputes the whole prefix per token (O(n²) layer passes
// over the sequence); a Decoder runs each new token through the
// submodel once, attending to cached keys/values — the standard
// GPT-style inference optimization, applied to STI's assembled
// submodels.
//
// KV state is stored in paged, byte-budgeted blocks managed by a
// BlockAllocator, so hundreds of concurrent decode streams can share
// one byte budget: blocks of DefaultBlockTokens positions are
// allocated as a sequence grows, freed when it retires, and evictable
// under pressure — an evicted sequence is resumable by recomputing its
// KV from the tokens it already consumed (greedy decode is
// deterministic, so the recomputed bytes are identical).

// DefaultBlockTokens is the KV page size: positions per block.
const DefaultBlockTokens = 16

// KVCharger is the byte budget KV blocks are charged against. The
// pipeline engine implements it over its §3.2 preload grant (KV bytes
// and preload shard bytes arbitrate for one budget); KVBudget is a
// standalone fixed-budget implementation.
type KVCharger interface {
	// ReserveKV charges bytes against the budget, reporting whether
	// they fit. A false return leaves the budget unchanged.
	ReserveKV(bytes int64) bool
	// ReleaseKV returns previously reserved bytes.
	ReleaseKV(bytes int64)
}

// KVBudget is a fixed standalone KV byte budget.
type KVBudget struct {
	mu     sync.Mutex
	budget int64
	used   int64
}

// NewKVBudget creates a fixed budget of the given bytes.
func NewKVBudget(budget int64) *KVBudget { return &KVBudget{budget: budget} }

// ReserveKV charges bytes if they fit the budget.
func (b *KVBudget) ReserveKV(bytes int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+bytes > b.budget {
		return false
	}
	b.used += bytes
	return true
}

// ReleaseKV returns previously charged bytes.
func (b *KVBudget) ReleaseKV(bytes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.used -= bytes
}

// Used returns the bytes currently charged.
func (b *KVBudget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// KVBlock is one page of cached keys and values for one layer:
// blockTokens rows of that layer's KV row width.
type KVBlock struct {
	k, v []float32
}

// BlockAllocator hands out KV blocks under a byte budget and recycles
// freed ones (pooled by row width, so a retired sequence's pages are
// reused by the next admission instead of churning the GC). A nil
// charger is unbounded — the single-stream Decoder default.
type BlockAllocator struct {
	charger     KVCharger
	blockTokens int

	mu        sync.Mutex
	free      map[int][]*KVBlock // pooled by row width
	liveBytes int64
}

// NewBlockAllocator creates an allocator charging the given budget.
// blockTokens <= 0 uses DefaultBlockTokens.
func NewBlockAllocator(charger KVCharger, blockTokens int) *BlockAllocator {
	if blockTokens <= 0 {
		blockTokens = DefaultBlockTokens
	}
	return &BlockAllocator{
		charger:     charger,
		blockTokens: blockTokens,
		free:        make(map[int][]*KVBlock),
	}
}

// BlockTokens returns the allocator's page size in positions.
func (a *BlockAllocator) BlockTokens() int { return a.blockTokens }

// LiveBytes returns the bytes currently allocated to live sequences.
func (a *BlockAllocator) LiveBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.liveBytes
}

// NewKV registers a sequence whose layer l keys/values have the given
// row widths. No blocks are allocated until Reserve.
func (a *BlockAllocator) NewKV(widths []int) *PagedKV {
	kv := &PagedKV{
		alloc:  a,
		widths: append([]int(nil), widths...),
		layers: make([][]*KVBlock, len(widths)),
	}
	for _, w := range widths {
		// One page spans every layer: k and v rows, float32.
		kv.pageBytes += int64(2 * a.blockTokens * w * 4)
	}
	return kv
}

// PagedKV is one sequence's paged KV cache: per layer, a list of
// fixed-size blocks covering positions [0, cap). Rows beyond the
// writer's high-water mark hold recycled garbage — the decoder writes
// position p before any attention reads it.
type PagedKV struct {
	alloc     *BlockAllocator
	widths    []int
	pageBytes int64
	layers    [][]*KVBlock
	capTokens int
	freed     bool
}

// Reserve ensures capacity for positions [0, tokens), allocating pages
// as needed. It reports false — leaving existing pages intact — if the
// charger refuses the bytes; the caller may free other sequences
// (preemption) and retry.
func (kv *PagedKV) Reserve(tokens int) bool {
	a := kv.alloc
	for kv.capTokens < tokens {
		if a.charger != nil && !a.charger.ReserveKV(kv.pageBytes) {
			return false
		}
		a.mu.Lock()
		if kv.freed {
			a.mu.Unlock()
			if a.charger != nil {
				a.charger.ReleaseKV(kv.pageBytes)
			}
			return false
		}
		for l, w := range kv.widths {
			kv.layers[l] = append(kv.layers[l], a.takeLocked(w))
		}
		a.liveBytes += kv.pageBytes
		a.mu.Unlock()
		kv.capTokens += a.blockTokens
	}
	return true
}

// takeLocked pops a pooled block of the row width, or builds one.
func (a *BlockAllocator) takeLocked(width int) *KVBlock {
	pool := a.free[width]
	if n := len(pool); n > 0 {
		b := pool[n-1]
		a.free[width] = pool[:n-1]
		return b
	}
	n := a.blockTokens * width
	return &KVBlock{k: make([]float32, n), v: make([]float32, n)}
}

// Free releases every page back to the allocator's pool and returns
// the bytes to the charger — retirement, or eviction under pressure
// (the sequence is resumable: recomputing its consumed tokens restores
// identical KV bytes). Free is idempotent; the PagedKV must not be
// used afterwards (build a fresh one to readmit).
func (kv *PagedKV) Free() {
	a := kv.alloc
	a.mu.Lock()
	if kv.freed {
		a.mu.Unlock()
		return
	}
	kv.freed = true
	pages := 0
	for l, blocks := range kv.layers {
		pages = len(blocks)
		a.free[kv.widths[l]] = append(a.free[kv.widths[l]], blocks...)
		kv.layers[l] = nil
	}
	freedBytes := int64(pages) * kv.pageBytes
	a.liveBytes -= freedBytes
	kv.capTokens = 0
	a.mu.Unlock()
	if a.charger != nil && freedBytes > 0 {
		a.charger.ReleaseKV(freedBytes)
	}
}

// Bytes returns the bytes currently held by this sequence's pages.
func (kv *PagedKV) Bytes() int64 {
	return int64(kv.capTokens/kv.alloc.blockTokens) * kv.pageBytes
}

// kRow and vRow address one position's row in one layer's paged cache.
func (kv *PagedKV) kRow(layer, pos int) []float32 {
	b := kv.layers[layer][pos/kv.alloc.blockTokens]
	w := kv.widths[layer]
	off := (pos % kv.alloc.blockTokens) * w
	return b.k[off : off+w]
}

func (kv *PagedKV) vRow(layer, pos int) []float32 {
	b := kv.layers[layer][pos/kv.alloc.blockTokens]
	w := kv.widths[layer]
	off := (pos % kv.alloc.blockTokens) * w
	return b.v[off : off+w]
}

// Decoder is one sequence's incremental decode state over a paged KV
// cache.
type Decoder struct {
	SM     *Submodel
	kv     *PagedKV
	length int // tokens consumed so far
}

// NewDecoder prepares an empty, unbudgeted decoder for the submodel
// (its KV blocks are private and uncharged — the single-stream path).
func NewDecoder(sm *Submodel) *Decoder {
	return NewPagedDecoder(sm, NewBlockAllocator(nil, 0))
}

// NewPagedDecoder prepares an empty decoder whose KV blocks come from
// a shared, byte-budgeted allocator — the continuous-batching path,
// where many concurrent sequences arbitrate for one budget.
func NewPagedDecoder(sm *Submodel, alloc *BlockAllocator) *Decoder {
	widths := make([]int, len(sm.Layers))
	for i, sl := range sm.Layers {
		widths[i] = sl.Width * sm.Cfg.HeadDim()
	}
	return &Decoder{SM: sm, kv: alloc.NewKV(widths)}
}

// Len returns the number of tokens consumed.
func (d *Decoder) Len() int { return d.length }

// KVBytes returns the bytes the decoder's KV pages currently hold.
func (d *Decoder) KVBytes() int64 { return d.kv.Bytes() }

// Reserve ensures KV capacity for one more token, reporting false if
// the allocator's budget refuses it. Step callers reserve every
// participant before running the batched forward, so a starved
// sequence skips the step instead of failing it mid-layer.
func (d *Decoder) Reserve() bool { return d.kv.Reserve(d.length + 1) }

// Release frees the decoder's KV pages back to its allocator — on
// retirement, or preemption (the sequence resumes by replaying its
// consumed tokens through a fresh decoder; greedy decode is
// deterministic, so the recomputed KV bytes are identical). The
// decoder must not be used after Release.
func (d *Decoder) Release() { d.kv.Free() }

// Append feeds one token and returns its final hidden state (1×d).
// The hidden state equals row `length` of CausalForward over the whole
// prefix, without recomputing the prefix. It is the B=1 case of
// StepBatch, so single-stream and continuously-batched decodes are
// byte-identical by construction.
func (d *Decoder) Append(token int) ([]float32, error) {
	x, err := StepBatch([]*Decoder{d}, []int{token})
	if err != nil {
		return nil, err
	}
	return x.Row(0), nil
}

// StepBatch feeds one token to each of B decoders through one batched
// forward — the decode-side analogue of ForwardLayerBatch. The
// position-wise kernels (embedding, and the layer body's project and
// finish: Q/K/V/O projections, FFN, layernorm, GELU, residuals) run
// once over B stacked rows, while attention — the only cross-position
// operation, and the only part of the layer it runs itself — reads each
// sequence's own paged KV cache at its own position, so the sequences
// may be at arbitrary, ragged lengths. Every kernel computes output
// rows independently, so row i is byte-identical to decs[i].Append
// alone; one batched forward per step is what lets a continuous
// batcher serve many streams for one per-step compute pass.
//
// All decoders must share one submodel, and every decoder must have KV
// capacity for one more token (see Reserve). Returns the B×hidden
// final hidden states.
func StepBatch(decs []*Decoder, tokens []int) (*tensor.Matrix, error) {
	if len(decs) == 0 || len(tokens) != len(decs) {
		return nil, fmt.Errorf("model: step of %d decoders with %d tokens", len(decs), len(tokens))
	}
	sm := decs[0].SM
	cfg := sm.Cfg
	for i, d := range decs {
		if d.SM != sm {
			return nil, fmt.Errorf("model: step decoder %d rides a different submodel", i)
		}
		if d.length >= cfg.MaxSeq {
			return nil, fmt.Errorf("model: decoder exceeded MaxSeq %d", cfg.MaxSeq)
		}
		if tokens[i] < 0 || tokens[i] >= cfg.Vocab {
			return nil, fmt.Errorf("model: token %d outside vocab", tokens[i])
		}
		if !d.Reserve() {
			return nil, fmt.Errorf("model: decoder %d has no KV capacity (reserve before stepping)", i)
		}
	}
	B := len(decs)

	// Embeddings for each sequence's next position.
	x := tensor.New(B, cfg.Hidden)
	for i, d := range decs {
		row := x.Row(i)
		copy(row, sm.Parent.Emb.Token.Row(tokens[i]))
		posEmb := sm.Parent.Emb.Position.Row(d.length)
		for j := range row {
			row[j] += posEmb[j]
		}
	}
	tensor.LayerNormRows(x, sm.Parent.Emb.LNG, sm.Parent.Emb.LNB, nil, nil)

	hd := cfg.HeadDim()
	for li, sl := range sm.Layers {
		q, kRow, vRow := project(cfg, sl, x)
		for i, d := range decs {
			copy(d.kv.kRow(li, d.length), kRow.Row(i))
			copy(d.kv.vRow(li, d.length), vRow.Row(i))
		}

		// Attention is independent per stream (each row reads only its
		// own decoder's KV pages and writes only its own concat row),
		// so wide batches split across cores like the matmuls do —
		// batched step wall time stays sublinear in stream count.
		concat := tensor.New(B, sl.Width*hd)
		scale := float32(1 / math.Sqrt(float64(hd)))
		eachStream(B, func(i int) {
			d := decs[i]
			pos := d.length
			// Scores over cached positions 0..pos, one scratch buffer
			// reused across this stream's heads (the attention inner
			// loop runs per step per stream — per-head allocations are
			// pure GC tail latency). Each float32(a*b) below keeps the
			// compiler from fusing the multiply into the add, so every
			// architecture rounds the step as amd64 does.
			scores := make([]float32, pos+1)
			for h := 0; h < sl.Width; h++ {
				qh := q.Row(i)[h*hd : (h+1)*hd]
				var max float32 = -math.MaxFloat32
				for j := 0; j <= pos; j++ {
					kj := d.kv.kRow(li, j)[h*hd : (h+1)*hd]
					var s float32
					for z := range qh {
						s += float32(qh[z] * kj[z])
					}
					s *= scale
					scores[j] = s
					if s > max {
						max = s
					}
				}
				sum := tensor.ExpShiftSum(scores, max)
				out := concat.Row(i)[h*hd : (h+1)*hd]
				for j := 0; j <= pos; j++ {
					wj := scores[j] / sum
					vj := d.kv.vRow(li, j)[h*hd : (h+1)*hd]
					for z := range out {
						out[z] += float32(wj * vj[z])
					}
				}
			}
		})

		x = finish(cfg, sl, x, concat)
	}
	for _, d := range decs {
		d.length++
	}
	return x, nil
}

// eachStream runs fn(i) for i in [0, n), splitting the streams across
// GOMAXPROCS goroutines when both the batch and the machine are wide
// enough to pay for the fan-out. fn must touch only stream i's state.
func eachStream(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// StepLogits is StepBatch followed by the weight-tied language-model
// head: one batched forward plus one batched head matmul yields each
// sequence's next-token logits (B×vocab, rows byte-identical to
// NextLogits alone).
func StepLogits(decs []*Decoder, tokens []int) (*tensor.Matrix, error) {
	x, err := StepBatch(decs, tokens)
	if err != nil {
		return nil, err
	}
	sm := decs[0].SM
	logits := tensor.New(x.Rows, sm.Cfg.Vocab)
	tensor.MatMul(logits, x, sm.Parent.Emb.head())
	return logits, nil
}

// NextLogits returns LM logits after consuming the token (weight-tied
// head, same as Submodel.NextTokenLogits).
func (d *Decoder) NextLogits(token int) ([]float32, error) {
	logits, err := StepLogits([]*Decoder{d}, []int{token})
	if err != nil {
		return nil, err
	}
	return logits.Row(0), nil
}

// GenerateCached greedily decodes steps tokens after the prompt using
// the KV cache; the result matches Submodel.Generate exactly while
// doing O(n) layer passes instead of O(n²).
func (sm *Submodel) GenerateCached(prompt []int, steps int) ([]int, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("model: empty prompt")
	}
	d := NewDecoder(sm)
	var logits []float32
	var err error
	for _, tok := range prompt {
		if logits, err = d.NextLogits(tok); err != nil {
			return nil, err
		}
	}
	seq := append([]int(nil), prompt...)
	for s := 0; s < steps && len(seq) < sm.Cfg.MaxSeq; s++ {
		best := 0
		for i, v := range logits {
			if v > logits[best] {
				best = i
			}
		}
		seq = append(seq, best)
		if len(seq) >= sm.Cfg.MaxSeq {
			break
		}
		if logits, err = d.NextLogits(best); err != nil {
			return nil, err
		}
	}
	return seq, nil
}
