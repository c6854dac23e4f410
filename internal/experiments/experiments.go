// Package experiments regenerates every table and figure of the
// paper's evaluation (§7) plus the motivation measurements (§2.2) and
// ablations of STI's design choices. Each experiment is a named runner
// producing a formatted report; cmd/sti-experiments and the repository
// benchmarks call into this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"sti/internal/acc"
	"sti/internal/device"
	"sti/internal/model"
	"sti/internal/planner"
)

// Result is one regenerated experiment.
type Result struct {
	ID     string
	Title  string
	Output string
}

// runner produces one experiment report.
type runner struct {
	title string
	run   func() (string, error)
}

var registry = map[string]runner{
	"motiv":    {"§2.2 motivation: IO/compute skew on the edge", Motivation},
	"fig1":     {"Figure 1: execution method comparison", Figure1},
	"fig5":     {"Figure 5: shard importance heatmaps (SST-2 vs RTE)", Figure5},
	"fig6":     {"Figure 6: AIB mini example", Figure6},
	"fig7":     {"Figure 7: accuracy/memory tradeoff at T=200ms", Figure7},
	"fig8":     {"Figure 8: submodel comparison, Ours vs StdPL-6bit", Figure8},
	"table5":   {"Table 5: accuracy under target latencies", Table5},
	"table6":   {"Table 6: selected submodel sizes", Table6},
	"table7":   {"Table 7: importance-guided IO budget allocation", Table7},
	"storage":  {"§7.2: storage overhead of shard versions", Storage},
	"sens-t":   {"§7.4: sensitivity to target latency", SensitivityTarget},
	"sens-s":   {"§7.4: sensitivity to preload buffer size", SensitivityPreload},
	"ablate":   {"Ablations: IO granularity, deeper-tie, two-pass", Ablations},
	"energy":   {"§7.2: energy overhead comparison", Energy},
	"lifetime": {"§2.1-2.2: engagement lifetime under the memory killer", Lifetime},
	"sens-l":   {"extension: sensitivity to input sequence length", SensitivitySeqLen},
	"sens-f":   {"extension: sensitivity to DVFS operating point", SensitivityFreq},
}

// IDs lists experiment identifiers in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id.
func Run(id string) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	out, err := r.run()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return &Result{ID: id, Title: r.title, Output: out}, nil
}

// Shared setup helpers.

// paperTargets are the target latencies of §7.1.
var paperTargets = []time.Duration{150 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}

// preloadFor returns the paper's preload buffer size per platform
// (Table 5: 1 MB on Odroid, 5 MB on Jetson).
func preloadFor(dev *device.Profile) int64 {
	if dev.Kind == device.GPU {
		return 5 << 20
	}
	return 1 << 20
}

func paperTasks() []*acc.Task {
	cfg := model.BERTBase()
	return acc.Tasks(cfg.Layers, cfg.Heads)
}

// table renders the rows write prints as aligned columns onto b. An
// error from write is returned unflushed, so an experiment fails
// instead of returning a report cut short at the failing cell.
func table(b *strings.Builder, write func(w *tabwriter.Writer) error) error {
	w := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	if err := write(w); err != nil {
		return err
	}
	return w.Flush()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// submodelBits builds the bit matrix of an n×m uniform-bits submodel
// over a task's top slices.
func submodelBits(task *acc.Task, n, m, bits int) ([][]int, [][]int) {
	slices := make([][]int, n)
	bb := make([][]int, n)
	for l := 0; l < n; l++ {
		slices[l] = task.Imp.TopSlices(l, m)
		bb[l] = make([]int, m)
		for j := range bb[l] {
			bb[l][j] = bits
		}
	}
	return slices, bb
}

// planFor runs STI's planner for one experiment cell.
func planFor(dev *device.Profile, task *acc.Task, target time.Duration, preload int64) (*planner.Plan, planner.Request, error) {
	cfg := model.BERTBase()
	req := planner.NewRequest(dev, cfg, task.Imp, planner.AnalyticSizer{Params: cfg.ShardParams()}, target, preload)
	p, err := req.Plan()
	return p, req, err
}
