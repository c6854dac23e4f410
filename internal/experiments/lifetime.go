package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"sti/internal/acc"
	"sti/internal/baselines"
	"sti/internal/device"
	"sti/internal/lifetime"
	"sti/internal/shard"
)

// Energy reproduces §7.2's qualitative energy analysis: STI draws
// notably more than the low-accuracy pipelines (it keeps both units
// busy) but only moderately more than hold-in-memory at the same
// accuracy, because active compute dominates and the extra IO rides an
// already-hot SoC.
func Energy() (string, error) {
	var b strings.Builder
	dev := device.Odroid()
	task := acc.TaskByName("SST-2", 12, 12)
	s := baselines.NewSetup(dev, task, 200*time.Millisecond)
	outs, err := baselines.All(s, preloadFor(dev))
	if err != nil {
		return "", err
	}
	pm := dev.Power()
	var sti, preloadFull, stdFull float64
	if err := table(&b, func(w *tabwriter.Writer) error {
		fmt.Fprintln(w, "method\taccuracy\tenergy/inference\tcompute busy\tIO busy")
		for _, o := range outs {
			var compBusy time.Duration
			for i := range o.Timeline.CompStart {
				compBusy += o.Timeline.CompEnd[i] - o.Timeline.CompStart[i]
			}
			e := pm.EnergyJ(o.Timeline.Total(), compBusy, o.Timeline.IOBusy())
			switch o.Method {
			case "Ours":
				sti = e
			case "Preload-full":
				preloadFull = e
			case "StdPL-full":
				stdFull = e
			}
			fmt.Fprintf(w, "%s\t%.1f\t%.2fJ\t%s\t%s\n",
				o.Method, o.Accuracy, e, ms(compBusy), ms(o.Timeline.IOBusy()))
		}
		return nil
	}); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nSTI vs StdPL-full: %.2fx energy (more useful work per inference)\n", sti/stdFull)
	fmt.Fprintf(&b, "STI vs Preload-full: %.2fx energy (IO rides the already-active SoC)\n", sti/preloadFull)
	b.WriteString("paper: notably more than low-accuracy baselines; moderately but not\n")
	b.WriteString("significantly more than similar-accuracy PreloadModel-full.\n")
	return b.String(), nil
}

// Lifetime simulates a day of bursty engagements (§2.1 [9,10]) under
// the mobile low-memory killer (§2.2 [6,30]) for the three execution
// strategies of Figure 1, using latencies and IO volumes measured from
// this repository's own pipeline.
func Lifetime() (string, error) {
	var b strings.Builder
	dev := device.Odroid()
	task := acc.TaskByName("SST-2", 12, 12)
	s := baselines.NewSetup(dev, task, 200*time.Millisecond)

	// Derive each strategy's lifetime profile from the simulated
	// pipeline at T=200ms.
	pre := baselines.PreloadModel(s, shard.FullBits)
	std := baselines.StdPL(s, shard.FullBits)
	ours, err := baselines.STI(s, preloadFor(dev))
	if err != nil {
		return "", err
	}
	ours0, err := baselines.STI(s, 0)
	if err != nil {
		return "", err
	}
	coldLoad := dev.TIO(int(pre.MemoryBytes)) + pre.Latency

	apps := []lifetime.App{
		{
			Name: "HoldInMemory", ResidentBytes: pre.MemoryBytes,
			ColdLatency: coldLoad, WarmLatency: pre.Latency,
			ColdBytes: pre.MemoryBytes, WarmBytes: 0,
		},
		{
			Name: "StdPipeline", ResidentBytes: 0,
			ColdLatency: std.Latency, WarmLatency: std.Latency,
			ColdBytes: streamBytes(std), WarmBytes: streamBytes(std),
		},
		{
			Name: "STI", ResidentBytes: ours.MemoryBytes,
			ColdLatency: ours0.Latency + ours0.Plan.InitialStall, WarmLatency: ours.Latency,
			ColdBytes: streamBytes(ours0), WarmBytes: streamBytes(ours),
		},
	}
	w := lifetime.GenerateWorkload(300, 30*time.Minute, 42)
	os := lifetime.DefaultOS()
	b.WriteString("300 engagements, exponential gaps (mean 30min), 1-3 turns each:\n\n")
	for _, app := range apps {
		st := lifetime.Simulate(app, w, os, 7)
		fmt.Fprintf(&b, "%s\n", st)
	}
	b.WriteString("\npaper motivation: an in-memory model is the OS's likely victim and\n")
	b.WriteString("\"benefits no more than 2 executions\" before reclaim; STI's MB-scale\n")
	b.WriteString("buffer survives and keeps every first turn near T.\n")
	return b.String(), nil
}

// streamBytes estimates flash bytes per execution from the outcome's
// timeline IO busy time and the platform bandwidth.
func streamBytes(o baselines.Outcome) int64 {
	dev := device.Odroid()
	return int64(o.Timeline.IOBusy().Seconds() * dev.Bandwidth)
}
