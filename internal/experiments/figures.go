package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"sti/internal/acc"
	"sti/internal/baselines"
	"sti/internal/device"
	"sti/internal/importance"
	"sti/internal/model"
	"sti/internal/pipeline"
	"sti/internal/planner"
	"sti/internal/shard"
)

// Motivation reproduces the §2.2 measurements that motivate STI: the
// skew between a transformer layer's IO and compute delays, and the
// end-to-end cost of loading DistilBERT before executing it.
func Motivation() (string, error) {
	var b strings.Builder
	cfg := model.BERTBase()
	layerBytes := cfg.LayerParams() * 4
	for _, dev := range device.Platforms() {
		io := dev.TIO(layerBytes)
		comp := dev.TComp(128, cfg.Heads, 1.0)
		fmt.Fprintf(&b, "%s: one 12-head layer: IO %s vs compute %s (skew %.1fx)\n",
			dev.Name, ms(io), ms(comp), float64(io)/float64(comp))
	}
	// DistilBERT (6 layers) load-then-execute.
	od := device.Odroid()
	distilParams := int64(6 * cfg.LayerParams() * 4)
	load := od.TIO(int(distilParams))
	exec := 6 * od.TComp(128, cfg.Heads, 1.0)
	fmt.Fprintf(&b, "\nDistilBERT on %s: load %.1fs (%d MB params) + execute %.1fs = %.1fs total\n",
		od.Name, load.Seconds(), distilParams/1e6, exec.Seconds(), (load + exec).Seconds())
	fmt.Fprintf(&b, "paper §2.2: 3.1s load of a 240MB file, 3.6s total; §1: 2.1s for 170MB of parameters\n")

	// Stall fraction of the standard pipeline.
	jobs := make([]pipeline.LayerJob, 6)
	for i := range jobs {
		jobs[i] = pipeline.LayerJob{IOBytes: layerBytes, Compute: od.TComp(128, cfg.Heads, 1.0)}
	}
	tl := pipeline.Simulate(od, jobs)
	fmt.Fprintf(&b, "standard layerwise pipeline: compute stalls %.0f%% of total latency (paper: >72%%)\n",
		100*float64(tl.ComputeStall())/float64(tl.Total()))
	return b.String(), nil
}

// Figure1 contrasts the four execution methods on timeline, memory and
// accuracy, mirroring the paper's opening figure.
func Figure1() (string, error) {
	var b strings.Builder
	dev := device.Odroid()
	task := acc.TaskByName("SST-2", 12, 12)
	target := 400 * time.Millisecond
	s := baselines.NewSetup(dev, task, target)

	outs := []baselines.Outcome{
		baselines.PreloadModel(s, shard.FullBits), // (a) hold in memory
		baselines.LoadExec(s),                     // (b) load before execute
		baselines.StdPL(s, shard.FullBits),        // (c) standard pipeline
	}
	ours, err := baselines.STI(s, preloadFor(dev))
	if err != nil {
		return "", err
	}
	outs = append(outs, ours) // (d) STI
	labels := []string{"(a) Hold in memory", "(b) Load before exec", "(c) Standard pipeline", "(d) STI (ours)"}

	fmt.Fprintf(&b, "SST-2 on %s, T=%v\n\n", dev.Name, target)
	for i, o := range outs {
		fmt.Fprintf(&b, "%s — %s\n", labels[i], o.String())
		g := o.Timeline.Gantt()
		b.WriteString(g.Render(64))
		fmt.Fprintf(&b, "compute util %.0f%%  IO util %.0f%%  stall %s\n\n",
			100*o.Timeline.ComputeUtilization(), 100*o.Timeline.IOUtilization(), ms(o.Timeline.ComputeStall()))
	}
	fmt.Fprintf(&b, "paper: STI ≈170× smaller memory than hold-in-memory at similar accuracy,\n")
	fmt.Fprintf(&b, "and much higher accuracy than load-on-demand methods.\n")
	return b.String(), nil
}

// Figure5 profiles shard importance for SST-2 and RTE against the
// accuracy surface using the paper's procedure and renders the
// heatmaps.
func Figure5() (string, error) {
	var b strings.Builder
	for _, name := range []string{"SST-2", "RTE"} {
		task := acc.TaskByName(name, 12, 12)
		profiled := importance.Profile(task, 12, 12, 2, 32)
		fmt.Fprintf(&b, "%s (profiled against dev accuracy; lighter = more important):\n", name)
		b.WriteString(profiled.Heatmap())
		// Concentration summary: share of top-36 shards in layers 0–5.
		rank := profiled.Ranked()
		bottom := 0
		for _, id := range rank[:36] {
			if id.Layer < 6 {
				bottom++
			}
		}
		fmt.Fprintf(&b, "top-25%% shards in layers 0-5: %d/36\n\n", bottom)
	}
	b.WriteString("paper: SST-2 importance spreads across layers; RTE concentrates on layers 0-5.\n")
	return b.String(), nil
}

// Figure6 walks the paper's AIB example: a 2×3 submodel, T=2s,
// Tcomp=1s, three preloaded 2-bit shards, and candidates A/B/C.
func Figure6() (string, error) {
	var b strings.Builder
	tio := func(bits int) time.Duration { return time.Duration(bits) * 100 * time.Millisecond }
	base := func() *planner.AIB {
		a := planner.NewAIB(2, 600*time.Millisecond, time.Second)
		for i := 0; i < 3; i++ {
			a.Charge(0, tio(2)) // the preloaded shards fill S'
		}
		return a
	}
	fmt.Fprintf(&b, "2x3 submodel, T=2s, Tcomp=1s, preload: three 2-bit shards of L0\n")
	fmt.Fprintf(&b, "initial: AIB(0)=0.6s (bonus IO), AIB(1)=1.6s; after preload charges: %v\n\n", base())
	for _, cand := range []struct {
		name string
		bits []int
	}{
		{"A", []int{2, 2, 2}},
		{"B", []int{3, 3, 3}},
		{"C", []int{5, 2, 4}},
	} {
		a := base()
		for _, bits := range cand.bits {
			a.Charge(1, tio(bits))
		}
		verdict := "VALID"
		if !a.Valid() {
			verdict = "INVALID (stalls the pipeline)"
		}
		fmt.Fprintf(&b, "candidate %s %v -> %v: %s\n", cand.name, cand.bits, a, verdict)
	}
	b.WriteString("\npaper: A and B valid; C invalid with AIB(1) = -0.1s.\n")
	return b.String(), nil
}

// Figure7 reports the accuracy/memory tradeoff of every method at
// T=200ms on SST-2 and QQP for both platforms.
func Figure7() (string, error) {
	var b strings.Builder
	for _, dev := range device.Platforms() {
		for _, taskName := range []string{"SST-2", "QQP"} {
			task := acc.TaskByName(taskName, 12, 12)
			s := baselines.NewSetup(dev, task, 200*time.Millisecond)
			outs, err := baselines.All(s, preloadFor(dev))
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s / %s (T=200ms):\n", dev.Name, taskName)
			if err := table(&b, func(w *tabwriter.Writer) error {
				fmt.Fprintln(w, "method\tmemory\taccuracy\tsubmodel")
				for _, o := range outs {
					fmt.Fprintf(w, "%s\t%s\t%.1f\t%dx%d\n",
						o.Method, baselines.FormatBytes(o.MemoryBytes), o.Accuracy, o.Depth, o.Width)
				}
				return nil
			}); err != nil {
				return "", err
			}
			// Headline ratios.
			var ours, full, six baselines.Outcome
			for _, o := range outs {
				switch o.Method {
				case "Ours":
					ours = o
				case "Preload-full":
					full = o
				case "Preload-6bit":
					six = o
				}
			}
			fmt.Fprintf(&b, "memory vs Preload-full: %.0fx lower; vs Preload-6bit: %.0fx lower; accuracy gap to full: %+.1fpp\n\n",
				float64(full.MemoryBytes)/float64(max64(ours.MemoryBytes, 1)),
				float64(six.MemoryBytes)/float64(max64(ours.MemoryBytes, 1)),
				ours.Accuracy-full.Accuracy)
		}
	}
	b.WriteString("paper: 204x lower memory than Preload-full at <1pp average accuracy loss; 41x vs Preload-6bit.\n")
	return b.String(), nil
}

// Figure8 compares the submodels executed by StdPL-6bit and STI on
// SST-2/Odroid at T=200ms, including the per-shard bitwidth layout and
// the FLOPs ratio.
func Figure8() (string, error) {
	var b strings.Builder
	dev := device.Odroid()
	task := acc.TaskByName("SST-2", 12, 12)
	s := baselines.NewSetup(dev, task, 200*time.Millisecond)

	std := baselines.StdPL(s, 6)
	ours, err := baselines.STI(s, preloadFor(dev))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "SST-2 on %s, T=200ms\n\n", dev.Name)
	fmt.Fprintf(&b, "(a) StdPL-6bit: %dx%d uniform 6-bit, accuracy %.1f\n", std.Depth, std.Width, std.Accuracy)
	for l := 0; l < std.Depth; l++ {
		fmt.Fprintf(&b, "  L%02d:", l)
		for j := 0; j < std.Width; j++ {
			fmt.Fprintf(&b, " %3d", 6)
		}
		fmt.Fprintln(&b)
	}
	p := ours.Plan
	fmt.Fprintf(&b, "\n(b) Ours: %dx%d mixed bitwidths, accuracy %.1f (preloaded marked *)\n", p.Depth, p.Width, ours.Accuracy)
	for l := 0; l < p.Depth; l++ {
		fmt.Fprintf(&b, "  L%02d:", l)
		for j := range p.Bits[l] {
			star := " "
			if p.Preloaded[l][j] {
				star = "*"
			}
			fmt.Fprintf(&b, " %3d%s", p.Bits[l][j], star)
		}
		fmt.Fprintln(&b)
	}
	cfg := model.BERTBase()
	fOurs := model.FLOPs(cfg, p.Depth, p.Width, 128)
	fStd := model.FLOPs(cfg, std.Depth, std.Width, 128)
	fmt.Fprintf(&b, "\nFLOPs ratio Ours/StdPL-6bit: %.2fx; accuracy gain %+.1fpp\n",
		float64(fOurs)/float64(fStd), ours.Accuracy-std.Accuracy)
	fmt.Fprintf(&b, "paper: 1.25x FLOPs and +9.2pp via the preload buffer warming the pipeline.\n")
	return b.String(), nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
