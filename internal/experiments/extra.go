package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"sti/internal/acc"
	"sti/internal/device"
	"sti/internal/model"
	"sti/internal/planner"
)

// SensitivitySeqLen sweeps the padded input length. The paper fixes
// l = 128 for planning (§5.2–5.3) but profiles Tcomp(l, m, freq);
// this experiment shows how the chosen submodel and accuracy shrink as
// inputs grow (attention's quadratic term bites past the reference
// length).
func SensitivitySeqLen() (string, error) {
	var b strings.Builder
	cfg := model.BERTBase()
	task := acc.TaskByName("SST-2", cfg.Layers, cfg.Heads)
	sizer := planner.AnalyticSizer{Params: cfg.ShardParams()}
	dev := device.Odroid()
	if err := table(&b, func(w *tabwriter.Writer) error {
		fmt.Fprintln(w, "seq len\tTcomp(m=12)\tsubmodel\taccuracy")
		for _, l := range []int{32, 64, 128, 192, 256} {
			req := planner.NewRequest(dev, cfg, task.Imp, sizer, 200*time.Millisecond, 1<<20)
			req.SeqLen = l
			p, err := req.Plan()
			if err != nil {
				return fmt.Errorf("seq len %d: %w", l, err)
			}
			fmt.Fprintf(w, "%d\t%s\t%dx%d\t%.1f\n",
				l, ms(dev.TComp(l, 12, 1.0)), p.Depth, p.Width,
				task.AccuracySubmodel(p.Slices, p.Bits))
		}
		return nil
	}); err != nil {
		return "", err
	}
	b.WriteString("\nshorter inputs leave compute headroom for deeper submodels; the\n")
	b.WriteString("quadratic attention term shrinks feasible submodels past l=128.\n")
	return b.String(), nil
}

// SensitivityFreq sweeps DVFS operating points at a fixed target. Lower
// frequencies stretch Tcomp, shrinking the feasible submodel but also
// granting each layer more overlap-able IO time — so the fidelity floor
// rises even as FLOPs fall.
func SensitivityFreq() (string, error) {
	var b strings.Builder
	cfg := model.BERTBase()
	task := acc.TaskByName("QQP", cfg.Layers, cfg.Heads)
	sizer := planner.AnalyticSizer{Params: cfg.ShardParams()}
	dev := device.Odroid()
	if err := table(&b, func(w *tabwriter.Writer) error {
		fmt.Fprintln(w, "freq\tsubmodel\tmin bits\taccuracy")
		for _, f := range dev.Freqs {
			req := planner.NewRequest(dev, cfg, task.Imp, sizer, 200*time.Millisecond, 1<<20)
			req.Freq = f
			p, err := req.Plan()
			if err != nil {
				return fmt.Errorf("freq %.2f: %w", float64(f), err)
			}
			min := 99
			for l := range p.Bits {
				for _, bits := range p.Bits[l] {
					if bits < min {
						min = bits
					}
				}
			}
			fmt.Fprintf(w, "%.2f\t%dx%d\t%d\t%.1f\n",
				float64(f), p.Depth, p.Width, min,
				task.AccuracySubmodel(p.Slices, p.Bits))
		}
		return nil
	}); err != nil {
		return "", err
	}
	b.WriteString("\nthrottled silicon runs smaller submodels but affords higher-fidelity\n")
	b.WriteString("shards per layer (slower compute = more bonus IO per AIB).\n")
	return b.String(), nil
}
