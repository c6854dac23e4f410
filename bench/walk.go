package main

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"sti"
	"sti/internal/bitpack"
	"sti/internal/model"
	"sti/internal/pipeline"
	"sti/internal/replica"
	"sti/internal/store"
	"sti/internal/tensor"
)

// shape is the work the walk repeats at each leaf: the workload's median
// batch and input length, its generate cohort, and the plans it rode.
type shape struct {
	batch   int      // median classify batch the scheduler formed
	tokens  []int    // a classify input of median length
	streams int      // concurrent generate streams
	prompt  []int    // a generate prompt
	maxNew  int      // median tokens generated per stream
	plans   []tierOf // every (model, tier) a response reported
}

type tierOf struct {
	model  string
	tierMS float64
}

// workShape reads the shape off the seam phase's samples.
func workShape(w *workload, p pools, samples []*sample) shape {
	var batches, lens, news []float64
	seen := make(map[tierOf]bool)
	sh := shape{streams: 1, prompt: p.prompts[0]}
	for _, s := range samples {
		if s.Err != "" || s.Req.Kind == kindBudget {
			continue
		}
		for i, r := range s.Results {
			if t := (tierOf{s.Req.Model, r.TierMS}); !seen[t] {
				seen[t] = true
				sh.plans = append(sh.plans, t)
			}
			if s.Req.Kind == kindClassify {
				batches = append(batches, float64(r.Batch))
				lens = append(lens, float64(len(p.classify[s.Req.Inputs[i]])))
			} else {
				news = append(news, float64(s.Req.MaxNew))
			}
		}
	}
	sort.Slice(sh.plans, func(i, j int) bool {
		if sh.plans[i].model != sh.plans[j].model {
			return sh.plans[i].model < sh.plans[j].model
		}
		return sh.plans[i].tierMS < sh.plans[j].tierMS
	})
	sh.batch = max(int(median(batches)), 1)
	sh.maxNew = 8 // a classify-only load still gets its decode path walked
	if len(news) > 0 {
		sh.maxNew = max(int(median(news)), 1)
	}
	// The pool input whose length is nearest the median.
	want := int(median(lens))
	sh.tokens = p.classify[0]
	for _, t := range p.classify {
		if abs(len(t)-want) < abs(len(sh.tokens)-want) {
			sh.tokens = t
		}
	}
	if w.Rate == 0 {
		sh.streams = w.conns()
	}
	return sh
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// spanReader is the walk engine's payload source: every shard read is a
// store.read span under whichever pipeline phase is running.
type spanReader struct {
	src    store.PayloadReader
	rec    *recorder
	parent atomic.Int64
}

func (r *spanReader) ReadShardPayload(layer, slice, bits int) ([]byte, error) {
	start := time.Now()
	data, err := r.src.ReadShardPayload(layer, slice, bits)
	r.rec.add("store.read", int(r.parent.Load()), "", start, time.Now())
	return data, err
}

// allocs measures fn's heap allocations: objects and bytes per call of fn.
// Nothing else runs during the walk, so the process-wide counters are fn's.
func allocs(calls int, fn func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls), float64(after.TotalAlloc-before.TotalAlloc) / float64(calls)
}

const (
	planIters   = 9
	execIters   = 5
	matmulIters = 15
)

// traceWalk takes every plan the load used apart: System.Plan, then a
// standalone engine reading through a span-recording source (warm, execute,
// materialize), then the leaves called directly on the plan's own shards.
func traceWalk(ctx context.Context, e *env, w *workload, rec *recorder, fleet *sti.Fleet, sh shape, set func(string, float64)) error {
	var planUS, execMS, ioMS, computeMS, stall, warmMS, matMS []float64
	var decodeUS, assembleUS, forwardMS, prefillMS, stepUS, gflops []float64
	var execObjs, execBytes, decodeObjs, fwdObjs, fwdBytes, stepObjs []float64
	var dequantBytes, unpackBytes float64
	var dequantTime, unpackTime time.Duration
	var kvPeak float64
	if len(sh.plans) == 0 {
		return errors.New("bench: the seam phase served nothing, so there is no plan to walk")
	}

	systems := make(map[string]*sti.System)
	for _, t := range sh.plans {
		var spec modelSpec
		for _, m := range w.Models {
			if m.Name == t.model {
				spec = m
			}
		}
		sys := systems[t.model]
		if sys == nil {
			var err error
			if sys, err = sti.Load(e.storeDir(spec), sti.Odroid(), 0); err != nil {
				return err
			}
			systems[t.model] = sys
		}
		entry, _ := fleet.Entry(t.model)
		per := replica.PerReplica(entry.Budget, w.Replicas)
		target := time.Duration(t.tierMS * float64(time.Millisecond))
		cfg := sys.Store.Man.Config

		var plan *sti.Plan
		for i := 0; i < planIters; i++ {
			start := time.Now()
			var err error
			if plan, err = sys.Plan(target, per); err != nil {
				return err
			}
			planUS = append(planUS, us(time.Since(start)))
		}

		eng, err := pipeline.NewEngine(sys.Store, per)
		if err != nil {
			return err
		}
		reader := &spanReader{src: sys.Store, rec: rec}
		eng.SetPayloadSource(reader)
		phase := func(name string, fn func() error) (time.Duration, error) {
			id := rec.begin(name, -1, "")
			reader.parent.Store(int64(id))
			start := time.Now()
			err := fn()
			took := time.Since(start)
			rec.end(id)
			return took, err
		}
		warm, err := phase("pipeline.warm", func() error { return eng.Warm(plan) })
		if err != nil {
			return err
		}
		warmMS = append(warmMS, ms(warm))

		inputs := make([]sti.BatchInput, sh.batch)
		for i := range inputs {
			inputs[i] = sti.BatchInput{Tokens: sh.tokens}
		}
		objs, bytes := allocs(execIters, func() {
			for i := 0; i < execIters && err == nil; i++ {
				_, err = phase("pipeline.execute", func() error {
					_, bs, err := eng.ExecuteBatch(ctx, plan, inputs)
					if err == nil {
						var io, compute time.Duration
						for l := range bs.LayerIO {
							io += bs.LayerIO[l]
							compute += bs.LayerCompute[l]
						}
						execMS, ioMS, computeMS = append(execMS, ms(bs.Total)), append(ioMS, ms(io)), append(computeMS, ms(compute))
						stall = append(stall, ratio(float64(bs.Stall), float64(bs.Total)))
					}
					return err
				})
			}
		})
		if err != nil {
			return err
		}
		execObjs, execBytes = append(execObjs, objs), append(execBytes, bytes)

		var sm *model.Submodel
		mat, err := phase("pipeline.materialize", func() error {
			var err error
			sm, _, err = eng.Materialize(ctx, plan)
			return err
		})
		if err != nil {
			return err
		}
		matMS = append(matMS, ms(mat))

		// Leaves, on the plan's own shard versions.
		for l := 0; l < plan.Depth; l++ {
			weights := make([][]float32, plan.Width)
			for j, slice := range plan.Slices[l] {
				data, err := sys.Store.ReadShardPayload(l, slice, plan.Bits[l][j])
				if err != nil {
					return err
				}
				var payload *store.Payload
				var took time.Duration
				objs, _ := allocs(1, func() {
					start := time.Now()
					payload, err = store.DecodePayload(data)
					took = time.Since(start)
				})
				if err != nil {
					return err
				}
				decodeUS, decodeObjs = append(decodeUS, us(took)), append(decodeObjs, objs)
				weights[j] = payload.Weights()
				if b := payload.Block; b != nil {
					dst := make([]float32, b.Count)
					start := time.Now()
					b.DequantizeInto(dst)
					dequantTime += time.Since(start)
					dequantBytes += float64(4 * b.Count)
					idx := make([]uint8, b.Count)
					start = time.Now()
					bitpack.UnpackInto(idx, b.Packed, b.Count, b.Bits)
					unpackTime += time.Since(start)
					unpackBytes += float64(b.Count)
				}
			}
			start := time.Now()
			shards := make([]*model.ShardWeights, plan.Width)
			for j, slice := range plan.Slices[l] {
				if shards[j], err = model.UnflattenShard(cfg, l, slice, weights[j]); err != nil {
					return err
				}
			}
			if _, err := model.AssembleSubLayer(cfg, eng.Resident.Layers[l], shards); err != nil {
				return err
			}
			assembleUS = append(assembleUS, us(time.Since(start)))
		}

		batch := make([][]int, sh.batch)
		for i := range batch {
			batch[i] = sh.tokens
		}
		x, seqLens := sm.EmbedBatch(batch)
		masks := make([][]bool, sh.batch)
		took := make([]time.Duration, len(sm.Layers)) // sized first: the closures below must allocate nothing of their own
		objs, bytes = allocs(len(sm.Layers), func() {
			for l, sub := range sm.Layers {
				start := time.Now()
				x = model.ForwardLayerBatch(cfg, sub, x, seqLens, masks)
				took[l] = time.Since(start)
			}
		})
		fwdObjs, fwdBytes = append(fwdObjs, objs), append(fwdBytes, bytes)
		for _, d := range took {
			forwardMS = append(forwardMS, ms(d))
		}

		// The generate cohort: prefill the prompt, then decode, one batched
		// step at a time, over paged KV charged to an open budget.
		alloc := model.NewBlockAllocator(model.NewKVBudget(1<<40), 0)
		decs := make([]*model.Decoder, sh.streams)
		for i := range decs {
			decs[i] = model.NewPagedDecoder(sm, alloc)
		}
		tokens := make([]int, len(decs))
		step := func(token int) error {
			for i := range tokens {
				tokens[i] = token
			}
			_, err := model.StepBatch(decs, tokens)
			return err
		}
		start := time.Now()
		for _, tok := range sh.prompt {
			if err := step(tok); err != nil {
				return err
			}
		}
		prefillMS = append(prefillMS, ms(time.Since(start)))
		steps := min(sh.maxNew, cfg.MaxSeq-len(sh.prompt))
		took = make([]time.Duration, steps)
		objs, _ = allocs(steps, func() {
			for i := 0; i < steps && err == nil; i++ {
				start := time.Now()
				err = step(1 + i)
				took[i] = time.Since(start)
			}
		})
		if err != nil {
			return err
		}
		stepObjs = append(stepObjs, objs)
		for _, d := range took {
			stepUS = append(stepUS, us(d))
		}
		kvPeak = max(kvPeak, float64(alloc.LiveBytes()))
		for _, d := range decs {
			d.Release()
		}

		// The widest matmul of the forward pass: activations x FFN1.
		rows, inner, cols := sh.batch*len(sh.tokens), cfg.Hidden, plan.Width*cfg.FFNSlice()
		// Random operands: MatMul skips zero entries of a.
		rng := rand.New(rand.NewSource(1))
		a, b, dst := tensor.NewRand(rows, inner, 1, rng), tensor.NewRand(inner, cols, 1, rng), tensor.New(rows, cols)
		var secs []float64
		for i := 0; i < matmulIters; i++ {
			start := time.Now()
			tensor.MatMul(dst, a, b)
			secs = append(secs, time.Since(start).Seconds())
		}
		// FLOPs are computed from the shapes, not read from hardware counters.
		gflops = append(gflops, ratio(2*float64(rows)*float64(inner)*float64(cols)/1e9, median(secs)))
	}

	var reads []float64
	for _, s := range rec.snapshot() {
		if s.Name == "store.read" {
			reads = append(reads, us(s.duration()))
		}
	}
	set("planner.plan_p50_us", median(planUS))
	set("pipeline.exec_total_p50_ms", median(execMS))
	set("pipeline.io_busy_ms", median(ioMS))
	set("pipeline.compute_busy_ms", median(computeMS))
	set("pipeline.stall_ratio", median(stall))
	set("pipeline.exec_allocs_per_op", median(execObjs))
	set("pipeline.exec_bytes_per_op", median(execBytes))
	set("pipeline.warm_ms", median(warmMS))
	set("pipeline.materialize_ms", median(matMS))
	set("store.read_p50_us", median(reads))
	set("store.decode_p50_us", median(decodeUS))
	set("store.decode_allocs_per_op", median(decodeObjs))
	set("quant.dequantize_mb_per_s", ratio(dequantBytes/1e6, dequantTime.Seconds()))
	set("bitpack.unpack_mb_per_s", ratio(unpackBytes/1e6, unpackTime.Seconds()))
	set("model.assemble_p50_us", median(assembleUS))
	set("model.forward_layer_p50_ms", median(forwardMS))
	set("model.forward_allocs_per_op", median(fwdObjs))
	set("model.forward_bytes_per_op", median(fwdBytes))
	set("model.prefill_p50_ms", median(prefillMS))
	set("model.decode_step_p50_us", median(stepUS))
	set("model.decode_step_allocs_per_op", median(stepObjs))
	set("model.kv_bytes_peak", kvPeak)
	set("tensor.matmul_gflops", median(gflops))
	return nil
}
