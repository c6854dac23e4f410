// Package profiler implements STI's offline profiling (§5.2) for the
// real path: measuring a host's actual IO and compute delays against a
// preprocessed store, and profiling shard importance of a real trained
// model on a real dev set.
//
// Paper-scale experiments use the calibrated device models in
// internal/device instead; this package is what a deployment on real
// hardware would run once at installation time.
package profiler

import (
	"fmt"
	"time"

	"sti/internal/device"
	"sti/internal/glue"
	"sti/internal/importance"
	"sti/internal/model"
	"sti/internal/quant"
	"sti/internal/shard"
	"sti/internal/store"
	"sti/internal/tensor"
)

// MeasureDevice times shard loads and layer executions on the local
// host and returns a device profile usable by the planner. IO delays
// are measured per bitwidth on one shard (all shards of a bitwidth
// have the same size, §5.2); compute is measured with a dry run of one
// assembled layer per width.
func MeasureDevice(st *store.Store, seqLen int) (*device.Profile, error) {
	cfg := st.Man.Config
	res, err := st.LoadResident()
	if err != nil {
		return nil, err
	}

	// IO: time a full-fidelity shard read to estimate bandwidth, and a
	// tiny read to estimate per-IO overhead.
	start := time.Now()
	payload, err := st.ReadShardPayload(0, 0, shard.FullBits)
	if err != nil {
		return nil, err
	}
	fullDur := time.Since(start)
	start = time.Now()
	small, err := st.ReadShardPayload(0, 0, st.Man.Bitwidths[0])
	if err != nil {
		return nil, err
	}
	smallDur := time.Since(start)
	bw := float64(len(payload)) / fullDur.Seconds()
	overhead := smallDur - time.Duration(float64(len(small))/bw*float64(time.Second))
	if overhead < 0 {
		overhead = 0
	}

	// Compute: dry-run one layer at widths 1 and full to fit the
	// fixed + incremental model.
	narrow, err := assembleLayer(st, res, 1)
	if err != nil {
		return nil, err
	}
	full, err := assembleLayer(st, res, cfg.Heads)
	if err != nil {
		return nil, err
	}
	t1, tM := timeLayers(cfg, narrow, full, seqLen)
	fixed, incr := fitCompute(t1, tM, cfg.Heads)
	return &device.Profile{
		Name: "measured-host", Kind: device.CPU,
		ComputeFixed: fixed, ComputeIncr: incr, WidthExp: 1.0,
		RefSeqLen: seqLen, SeqLinear: 0.7, SeqQuad: 0.3,
		Decompress: 0, Bandwidth: bw, IOOverhead: overhead,
		MemoryBytes: 4 << 30, Freqs: []device.Freq{1.0},
	}, nil
}

// fitCompute fits TComp's fixed + incr·m model through a layer timed
// at width 1 (t1) and at the full width heads (tM). Both terms are
// floored at 0: a noisy timing where the narrow layer ran slower than
// the full one would otherwise fit a negative increment, and the
// profile would predict compute falling as width grows.
func fitCompute(t1, tM time.Duration, heads int) (fixed, incr time.Duration) {
	if heads > 1 {
		incr = max((tM-t1)/time.Duration(heads-1), 0)
	}
	return max(t1-incr, 0), incr
}

// assembleLayer assembles layer 0 at width m from full-fidelity shards.
func assembleLayer(st *store.Store, res *model.Weights, m int) (*model.SubLayer, error) {
	cfg := st.Man.Config
	shards := make([]*model.ShardWeights, m)
	for j := 0; j < m; j++ {
		p, err := st.ReadShard(0, j, shard.FullBits)
		if err != nil {
			return nil, err
		}
		sw, err := model.UnflattenShard(cfg, 0, j, p.Weights())
		if err != nil {
			return nil, err
		}
		shards[j] = sw
	}
	return model.AssembleSubLayer(cfg, res.Layers[0], shards)
}

// timeLayers times forward passes of the two layers over the same random
// input and returns the fastest pass of each. The passes alternate, so
// that load from elsewhere on a shared host, which comes and goes on the
// scale of a pass, slows both widths alike instead of whichever was timed
// second.
func timeLayers(cfg model.Config, a, b *model.SubLayer, seqLen int) (ta, tb time.Duration) {
	x := tensor.New(seqLen, cfg.Hidden)
	for i := range x.Data {
		x.Data[i] = float32(i%13) * 0.01
	}
	pass := func(sl *model.SubLayer) time.Duration {
		start := time.Now()
		model.ForwardLayerBatch(cfg, sl, x, []int{seqLen}, [][]bool{nil})
		return time.Since(start)
	}
	// Warm up once each, then keep the fastest of five passes each.
	pass(a)
	pass(b)
	ta, tb = time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 5; i++ {
		ta = min(ta, pass(a))
		tb = min(tb, pass(b))
	}
	return ta, tb
}

// RealEvaluator scores bitwidth assignments of a real model on a real
// dev set, implementing importance.Evaluator so the paper's profiling
// procedure (§5.2) runs against genuine accuracy measurements.
type RealEvaluator struct {
	W  *model.Weights
	DS *glue.Dataset

	cache map[cacheKey][]float32 // dequantized shard payloads
}

type cacheKey struct {
	layer, slice, bits int
}

// NewRealEvaluator wraps a trained model and its dataset.
func NewRealEvaluator(w *model.Weights, ds *glue.Dataset) *RealEvaluator {
	return &RealEvaluator{W: w, DS: ds, cache: make(map[cacheKey][]float32)}
}

func (e *RealEvaluator) shardWeights(l, s, bits int) []float32 {
	key := cacheKey{l, s, bits}
	if w, ok := e.cache[key]; ok {
		return w
	}
	flat := e.W.ExtractShard(l, s).Flatten()
	if bits != shard.FullBits {
		flat = quant.Quantize(flat, bits).Dequantize()
	}
	e.cache[key] = flat
	return flat
}

// AccuracyWithBits assembles the full model with per-shard bitwidths
// and measures dev accuracy in percent.
func (e *RealEvaluator) AccuracyWithBits(bits [][]int) float64 {
	cfg := e.W.Cfg
	sm := &model.Submodel{Cfg: cfg, Parent: e.W}
	for l := 0; l < cfg.Layers; l++ {
		shards := make([]*model.ShardWeights, cfg.Heads)
		for s := 0; s < cfg.Heads; s++ {
			sw, err := model.UnflattenShard(cfg, l, s, e.shardWeights(l, s, bits[l][s]))
			if err != nil {
				panic(fmt.Sprintf("profiler: %v", err))
			}
			shards[s] = sw
		}
		sl, err := model.AssembleSubLayer(cfg, e.W.Layers[l], shards)
		if err != nil {
			panic(fmt.Sprintf("profiler: %v", err))
		}
		sm.Layers = append(sm.Layers, sl)
	}
	correct := 0
	for _, ex := range e.DS.Dev {
		tokens, mask := e.DS.Encode(ex)
		if sm.Predict(tokens, mask) == ex.Label {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(e.DS.Dev))
}

var _ importance.Evaluator = (*RealEvaluator)(nil)

// ProfileImportance runs the paper's shard-importance profiling on a
// real model: every shard in turn at highBits while the rest sit at
// lowBits, ranked by measured dev accuracy.
func ProfileImportance(w *model.Weights, ds *glue.Dataset, lowBits, highBits int) *importance.Table {
	eval := NewRealEvaluator(w, ds)
	return importance.Profile(eval, w.Cfg.Layers, w.Cfg.Heads, lowBits, highBits)
}
