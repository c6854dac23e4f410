// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7). Each benchmark runs the corresponding experiment
// harness; the first iteration logs the full report so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result tables alongside the cost of producing
// them. Micro-benchmarks of the substrates (matmul, quantization,
// packing, pipeline engine) live in their packages.
package sti_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sti"
	"sti/internal/device"
	"sti/internal/experiments"
	"sti/internal/importance"
	"sti/internal/model"
	"sti/internal/pipeline"
	"sti/internal/planner"
)

// reportOnce ensures each experiment's full report is printed exactly
// once per `go test -bench` invocation. Printing to stdout (rather
// than b.Log) keeps the regenerated tables complete in the benchmark
// output — the testing framework truncates repeated BENCH logs.
var reportOnce sync.Map

// benchExperiment runs one experiment under the benchmark loop and
// prints its full report the first time it runs.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if _, seen := reportOnce.LoadOrStore(id, true); !seen {
			fmt.Printf("\n===== %s: %s =====\n%s\n", r.ID, r.Title, r.Output)
		}
	}
}

// §2.2 motivation numbers (IO/compute skew, cold-start delays).
func BenchmarkMotivation_IOSkew(b *testing.B) { benchExperiment(b, "motiv") }

// Figure 1: execution-method comparison with timelines.
func BenchmarkFigure1_ExecutionMethods(b *testing.B) { benchExperiment(b, "fig1") }

// Figure 5: shard-importance heatmaps for SST-2 vs RTE.
func BenchmarkFigure5_ImportanceMaps(b *testing.B) { benchExperiment(b, "fig5") }

// Figure 6: the AIB mini example (plans A/B valid, C invalid).
func BenchmarkFigure6_AIBExample(b *testing.B) { benchExperiment(b, "fig6") }

// Figure 7: accuracy/memory tradeoff at T=200ms.
func BenchmarkFigure7_AccuracyMemory(b *testing.B) { benchExperiment(b, "fig7") }

// Figure 8: submodel comparison between Ours and StdPL-6bit.
func BenchmarkFigure8_SubmodelComparison(b *testing.B) { benchExperiment(b, "fig8") }

// Table 5: the full accuracy grid (2 platforms × 4 tasks × 3 targets ×
// 8 methods).
func BenchmarkTable5_Accuracy(b *testing.B) { benchExperiment(b, "table5") }

// Table 6: submodel sizes selected per method and target.
func BenchmarkTable6_SubmodelSizes(b *testing.B) { benchExperiment(b, "table6") }

// Table 7: importance-guided vs random IO budget allocation.
func BenchmarkTable7_ImportanceAllocation(b *testing.B) { benchExperiment(b, "table7") }

// §7.2 storage overhead of the N×M×K shard versions.
func BenchmarkStorageOverhead(b *testing.B) { benchExperiment(b, "storage") }

// §7.4 sensitivity sweeps.
func BenchmarkSensitivity_TargetLatency(b *testing.B) { benchExperiment(b, "sens-t") }
func BenchmarkSensitivity_PreloadBuffer(b *testing.B) { benchExperiment(b, "sens-s") }

// Ablations of DESIGN.md's called-out choices (IO granularity,
// deeper-tie rule, two-pass allocation, eviction order).
func BenchmarkAblation_DesignChoices(b *testing.B) { benchExperiment(b, "ablate") }

// BenchmarkPlanner measures one full two-stage planning run at paper
// scale — §5.3 argues enumeration is constant-complexity and cheap
// enough to run on every T or |S| change.
func BenchmarkPlanner(b *testing.B) {
	cfg := model.BERTBase()
	imp := importance.Synthetic("QQP", cfg.Layers, cfg.Heads)
	sizer := planner.AnalyticSizer{Params: cfg.ShardParams()}
	req := planner.NewRequest(device.Odroid(), cfg, imp, sizer, 200*time.Millisecond, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := req.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSimulation measures the discrete-event schedule
// computation used by every experiment cell.
func BenchmarkPipelineSimulation(b *testing.B) {
	cfg := model.BERTBase()
	imp := importance.Synthetic("SST-2", cfg.Layers, cfg.Heads)
	sizer := planner.AnalyticSizer{Params: cfg.ShardParams()}
	req := planner.NewRequest(device.Jetson(), cfg, imp, sizer, 400*time.Millisecond, 5<<20)
	p, err := req.Plan()
	if err != nil {
		b.Fatal(err)
	}
	jobs := pipeline.PlanJobs(p, sizer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.Simulate(device.Jetson(), jobs)
	}
}

// BenchmarkEngineExecute measures a real pipelined inference (store
// reads + decompression + forward pass) on a tiny model.
func BenchmarkEngineExecute(b *testing.B) {
	dir := b.TempDir()
	w := sti.NewRandomModel(sti.TinyConfig(), 77)
	if _, err := sti.Preprocess(dir, w, nil); err != nil {
		b.Fatal(err)
	}
	sys, err := sti.Load(dir, sti.Odroid(), 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	p, err := sys.Plan(200*time.Millisecond, 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Warm(p); err != nil {
		b.Fatal(err)
	}
	req := sti.Request{Task: sti.TaskClassify, Tokens: []int{1, 9, 8, 7, 2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(context.Background(), p, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchedServe compares B sequential pipelined inferences
// against one ExecuteBatch of the same B inputs. The batched path
// streams and decompresses each layer's shards once for the whole
// batch, so completed-requests/sec rises and per-request layer IO
// drops to ≈1/B (reported as the bytes/req metric).
func BenchmarkBatchedServe(b *testing.B) {
	dir := b.TempDir()
	w := sti.NewRandomModel(sti.TinyConfig(), 77)
	if _, err := sti.Preprocess(dir, w, nil); err != nil {
		b.Fatal(err)
	}
	sys, err := sti.Load(dir, sti.Odroid(), 0) // zero preload: every layer streams
	if err != nil {
		b.Fatal(err)
	}
	p, err := sys.Plan(200*time.Millisecond, 0)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 8
	inputs := make([]sti.BatchInput, batch)
	for i := range inputs {
		inputs[i] = sti.BatchInput{Tokens: []int{1, 9, 8, 7, 2}}
	}

	b.Run("sequential", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			for _, in := range inputs {
				resp, err := sys.Run(context.Background(), p, sti.Request{
					Task: sti.TaskClassify, Tokens: in.Tokens, Mask: in.Mask,
				})
				if err != nil {
					b.Fatal(err)
				}
				bytes += resp.Stats.BytesRead
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "req/s")
		b.ReportMetric(float64(bytes)/float64(b.N*batch), "bytes/req")
	})
	b.Run("batched", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			_, stats, err := sys.Engine.ExecuteBatch(context.Background(), p, inputs)
			if err != nil {
				b.Fatal(err)
			}
			bytes += stats.BytesRead
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "req/s")
		b.ReportMetric(float64(bytes)/float64(b.N*batch), "bytes/req")
	})

	// Traced variants of both modes: every request runs with a live
	// span slab on its context and finishes into an exemplar ring, so
	// the smoke compares req/s with observability on vs off (the
	// tracing overhead budget is ≤ ~3%).
	hub := sti.NewObsHub(4)
	b.Run("sequential-traced", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			for _, in := range inputs {
				ctx, tr := hub.StartRequest(context.Background(), "")
				resp, err := sys.Run(ctx, p, sti.Request{
					Task: sti.TaskClassify, Tokens: in.Tokens, Mask: in.Mask,
				})
				if err != nil {
					b.Fatal(err)
				}
				hub.FinishRequest(tr, "m", "", "")
				bytes += resp.Stats.BytesRead
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "req/s")
		b.ReportMetric(float64(bytes)/float64(b.N*batch), "bytes/req")
	})
	b.Run("batched-traced", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			ctx, tr := hub.StartRequest(context.Background(), "")
			_, stats, err := sys.Engine.ExecuteBatch(ctx, p, inputs)
			if err != nil {
				b.Fatal(err)
			}
			hub.FinishRequest(tr, "m", "", "")
			bytes += stats.BytesRead
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "req/s")
		b.ReportMetric(float64(bytes)/float64(b.N*batch), "bytes/req")
	})
}

// BenchmarkTieredServe drives a mixed-SLO workload through the full
// scheduler→fleet→tier-ladder path: a tight class (25ms SLO), a
// relaxed class (100ms SLO) and a best-effort class (model default,
// Priority < 0) hammer one model through a deliberately shallow queue
// so congestion downgrades occur. Reported metrics: p50/p99 latency
// per tier class and the downgrade rate across completed requests.
func BenchmarkTieredServe(b *testing.B) {
	dir := b.TempDir()
	w := sti.NewRandomModel(sti.TinyConfig(), 77)
	if _, err := sti.Preprocess(dir, w, nil); err != nil {
		b.Fatal(err)
	}
	sys, err := sti.Load(dir, sti.Odroid(), 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	fleet := sti.NewFleet(64 << 10)
	if err := fleet.Add("m", sys, 50*time.Millisecond, 1); err != nil {
		b.Fatal(err)
	}
	if err := fleet.Replan(); err != nil {
		b.Fatal(err)
	}
	sched := sti.NewScheduler(fleet, sti.ServeOptions{
		QueueDepth: 4, Workers: 1, Slack: 1000, MaxBatch: 4,
	})
	defer sched.Close()

	classes := []struct {
		name     string
		target   time.Duration
		priority int
	}{
		{"tight", 25 * time.Millisecond, 0},
		{"relaxed", 100 * time.Millisecond, 0},
		{"besteffort", 0, -1},
	}
	var mu sync.Mutex
	latencies := make(map[string][]time.Duration)
	var completed, downgraded, shed int64

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < 6; c++ {
			cl := classes[c%len(classes)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 4; k++ {
					start := time.Now()
					res, err := sched.Submit(context.Background(), "m", sti.Request{
						Task: sti.TaskClassify, Tokens: []int{1, 9, 8, 7, 2},
						TargetLatency: cl.target, Priority: cl.priority,
					})
					mu.Lock()
					if err != nil {
						shed++
					} else {
						completed++
						latencies[cl.name] = append(latencies[cl.name], time.Since(start))
						if res.Tier != nil && res.Tier.Downgraded {
							downgraded++
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()

	quantile := func(lat []time.Duration, q float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		i := int(math.Ceil(q*float64(len(lat)))) - 1
		if i < 0 {
			i = 0
		}
		return float64(lat[i].Microseconds()) / 1e3
	}
	for _, cl := range classes {
		b.ReportMetric(quantile(latencies[cl.name], 0.50), cl.name+"_p50_ms")
		b.ReportMetric(quantile(latencies[cl.name], 0.99), cl.name+"_p99_ms")
	}
	if completed > 0 {
		b.ReportMetric(float64(downgraded)/float64(completed), "downgrade_rate")
	}
	b.ReportMetric(float64(shed), "shed")
}

// BenchmarkReplicatedServe measures replicated multi-engine serving: the
// same classify workload hammers one model through the full
// scheduler→fleet path at replicas ∈ {1, 2, 4}, with scheduler
// workers scaled 2× the replica count (the sti-serve default) and
// batching disabled so every request is one dispatch. Reported
// metrics: completed req/s, real flash bytes per request (reads the
// single-flight shard cache did NOT absorb — flat as replicas grow is
// the win), and the cache's dedup hit rate.
func BenchmarkReplicatedServe(b *testing.B) {
	dir := b.TempDir()
	w := sti.NewRandomModel(sti.TinyConfig(), 77)
	if _, err := sti.Preprocess(dir, w, nil); err != nil {
		b.Fatal(err)
	}
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			sys, err := sti.Load(dir, sti.Odroid(), 0)
			if err != nil {
				b.Fatal(err)
			}
			fleet := sti.NewFleet(96 << 10)
			if err := fleet.Add("m", sys, 100*time.Millisecond, 1); err != nil {
				b.Fatal(err)
			}
			if err := fleet.SetReplicas("m", replicas); err != nil {
				b.Fatal(err)
			}
			if err := fleet.Replan(); err != nil {
				b.Fatal(err)
			}
			sched := sti.NewScheduler(fleet, sti.ServeOptions{
				QueueDepth: 64, Workers: 2 * replicas, Slack: 1000, MaxBatch: 1,
			})
			defer sched.Close()

			before, _ := fleet.SharedCacheStats("m")
			var completed int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				const submitters = 8
				var wg sync.WaitGroup
				for c := 0; c < submitters; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := 0; k < 2; k++ {
							_, err := sched.Submit(context.Background(), "m", sti.Request{
								Task: sti.TaskClassify, Tokens: []int{1, 9, 8, 7, 2},
							})
							if err == nil {
								atomic.AddInt64(&completed, 1)
							}
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()

			after, _ := fleet.SharedCacheStats("m")
			if completed > 0 {
				b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "req/s")
				b.ReportMetric(float64(after.BytesRead-before.BytesRead)/float64(completed), "flashbytes/req")
			}
			if reads := after.Requests - before.Requests; reads > 0 {
				b.ReportMetric(float64(after.Hits()-before.Hits())/float64(reads), "sf_hit_rate")
			}
		})
	}
}

// BenchmarkContinuousGenerate measures the continuous batcher's
// iteration-level scheduling at 1/8/64 concurrent generate streams on
// one replica: aggregate decoded tokens per second, p99 inter-token
// latency across all streams, and flash bytes per decode step (which
// must not scale with stream count — every stream rides one
// materialized submodel).
func BenchmarkContinuousGenerate(b *testing.B) {
	dir := b.TempDir()
	w := sti.NewRandomModel(sti.TinyConfig(), 77)
	if _, err := sti.Preprocess(dir, w, nil); err != nil {
		b.Fatal(err)
	}
	const newTokens = 12
	for _, streams := range []int{1, 8, 64} {
		// traced=true runs the same workload with the observability hub
		// live: fleet metrics registered, every request carrying a span
		// slab, exemplar rings fed. The two modes bracket the tracing
		// overhead budget (≤ ~3% tok/s).
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("streams=%d", streams)
			if traced {
				name += "-traced"
			}
			b.Run(name, func(b *testing.B) {
				sys, err := sti.Load(dir, sti.Odroid(), 0)
				if err != nil {
					b.Fatal(err)
				}
				// The grant must hold every stream's KV pages alongside the
				// preload set, or high stream counts measure KV starvation
				// instead of scheduling (§3.2: one budget arbitrates both).
				fleet := sti.NewFleet(4 << 20)
				if err := fleet.Add("m", sys, 100*time.Millisecond, 1); err != nil {
					b.Fatal(err)
				}
				if err := fleet.SetReplicas("m", 1); err != nil {
					b.Fatal(err)
				}
				if err := fleet.Replan(); err != nil {
					b.Fatal(err)
				}
				var hub *sti.ObsHub
				if traced {
					hub = sti.NewObsHub(4)
					fleet.SetObservability(hub)
				}

				var tokens int64
				var mu sync.Mutex
				var gaps []time.Duration
				before, _ := fleet.SharedCacheStats("m")
				stepsBefore, _ := fleet.GenerateStats("m")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for s := 0; s < streams; s++ {
						wg.Add(1)
						go func(s int) {
							defer wg.Done()
							var last time.Time
							var local []time.Duration
							ctx, tr := hub.StartRequest(context.Background(), "")
							_, err := fleet.Serve(ctx, "m", sti.Request{
								Task:         sti.TaskGenerate,
								Tokens:       []int{1 + s%30, 9, 8},
								MaxNewTokens: newTokens,
								OnToken: func(step, token int) {
									// Gaps between tokens only: the first
									// token's wait is TTFT (admission +
									// prefill), a different metric.
									now := time.Now()
									if step > 0 {
										local = append(local, now.Sub(last))
									}
									last = now
									atomic.AddInt64(&tokens, 1)
								},
							})
							hub.FinishRequest(tr, "m", "", "")
							if err != nil {
								b.Error(err)
								return
							}
							mu.Lock()
							gaps = append(gaps, local...)
							mu.Unlock()
						}(s)
					}
					wg.Wait()
				}
				b.StopTimer()

				if tokens > 0 {
					b.ReportMetric(float64(tokens)/b.Elapsed().Seconds(), "tok/s")
				}
				if len(gaps) > 0 {
					sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
					p99 := gaps[len(gaps)*99/100]
					b.ReportMetric(float64(p99.Nanoseconds())/1e6, "p99_intertoken_ms")
				}
				after, _ := fleet.SharedCacheStats("m")
				stepsAfter, _ := fleet.GenerateStats("m")
				if steps := stepsAfter.Steps - stepsBefore.Steps; steps > 0 {
					b.ReportMetric(float64(after.BytesRead-before.BytesRead)/float64(steps), "flashbytes/step")
					b.ReportMetric(stepsAfter.AvgStreamsPerStep, "streams/step")
				}
			})
		}
	}
}

// §7.2 energy overhead and the §2.1-2.2 lifetime simulation.
func BenchmarkEnergyOverhead(b *testing.B)     { benchExperiment(b, "energy") }
func BenchmarkLifetimeSimulation(b *testing.B) { benchExperiment(b, "lifetime") }

// Extension sweeps: input sequence length and DVFS operating point.
func BenchmarkSensitivity_SeqLen(b *testing.B) { benchExperiment(b, "sens-l") }
func BenchmarkSensitivity_DVFS(b *testing.B)   { benchExperiment(b, "sens-f") }
