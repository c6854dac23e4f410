package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		r, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if r.Output == "" || r.Title == "" {
			t.Fatalf("%s: empty result", id)
		}
	}
}

// TestTableCallbackErrorReachesRun: an error from a table callback
// (a planner or baseline failing for one cell) comes back from table
// and from Run, instead of a report cut short with a nil error.
func TestTableCallbackErrorReachesRun(t *testing.T) {
	boom := errors.New("no feasible plan")
	failing := func() (string, error) {
		var b strings.Builder
		if err := table(&b, func(w *tabwriter.Writer) error {
			fmt.Fprintln(w, "method\tcell")
			fmt.Fprintln(w, "Ours\t1.0")
			return boom
		}); err != nil {
			return "", err
		}
		return b.String(), nil
	}
	if _, err := failing(); !errors.Is(err, boom) {
		t.Fatalf("table returned %v, want the callback's error", err)
	}
	registry["failing"] = runner{"a table whose callback fails", failing}
	defer delete(registry, "failing")
	if r, err := Run("failing"); !errors.Is(err, boom) || r != nil {
		t.Fatalf("Run = %+v, %v; want nil and the callback's error", r, err)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Fatal("expected unknown-id error")
	}
}

func TestMotivationReproducesSkew(t *testing.T) {
	out, err := Motivation()
	if err != nil {
		t.Fatal(err)
	}
	// The calibrated numbers of §2.2 must appear: ≈339ms IO vs ≈95ms
	// compute on the CPU platform, and a >60% stall fraction.
	if !strings.Contains(out, "341.1ms") || !strings.Contains(out, "97.0ms") {
		t.Fatalf("motivation numbers drifted:\n%s", out)
	}
	if !strings.Contains(out, "stalls 73%") {
		t.Fatalf("stall fraction drifted:\n%s", out)
	}
}

func TestFigure1STIDominates(t *testing.T) {
	out, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// STI must show full compute utilization and zero stall; the
	// load-before-exec method must show a large stall.
	sti := section(out, "(d) STI")
	if !strings.Contains(sti, "compute util 100%") || !strings.Contains(sti, "stall 0.0ms") {
		t.Fatalf("STI timeline not stall-free:\n%s", sti)
	}
	le := section(out, "(b) Load before exec")
	if !strings.Contains(le, "stall 3") && !strings.Contains(le, "stall 2") {
		t.Fatalf("Load&Exec should stall hundreds of ms:\n%s", le)
	}
}

// section extracts the text from a marker to the next blank-line-delimited
// header.
func section(out, marker string) string {
	i := strings.Index(out, marker)
	if i < 0 {
		return ""
	}
	rest := out[i:]
	if j := strings.Index(rest, "\n\n"); j > 0 {
		return rest[:j]
	}
	return rest
}

func TestFigure5Shapes(t *testing.T) {
	out, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	// RTE's top-quartile shards must concentrate in layers 0–5 more
	// than SST-2's.
	sstLine := lineAfter(out, "SST-2", "top-25% shards in layers 0-5:")
	rteLine := lineAfter(out, "RTE", "top-25% shards in layers 0-5:")
	sst := countOf(t, sstLine)
	rte := countOf(t, rteLine)
	if rte <= sst {
		t.Fatalf("RTE concentration %d not above SST-2 %d", rte, sst)
	}
	if rte < 30 {
		t.Fatalf("RTE should be heavily bottom-concentrated, got %d/36", rte)
	}
}

func lineAfter(out, anchor, prefix string) string {
	i := strings.Index(out, anchor)
	if i < 0 {
		return ""
	}
	j := strings.Index(out[i:], prefix)
	if j < 0 {
		return ""
	}
	rest := out[i+j+len(prefix):]
	if k := strings.IndexByte(rest, '\n'); k > 0 {
		rest = rest[:k]
	}
	return strings.TrimSpace(rest)
}

func countOf(t *testing.T, s string) int {
	t.Helper()
	parts := strings.Split(s, "/")
	n, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		t.Fatalf("cannot parse concentration %q", s)
	}
	return n
}

func TestFigure6Verdicts(t *testing.T) {
	out, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "candidate A [2 2 2] -> AIB(0)=0s AIB(1)=400ms: VALID") {
		t.Fatalf("candidate A wrong:\n%s", out)
	}
	if !strings.Contains(out, "candidate B [3 3 3] -> AIB(0)=0s AIB(1)=100ms: VALID") {
		t.Fatalf("candidate B wrong:\n%s", out)
	}
	if !strings.Contains(out, "candidate C [5 2 4] -> AIB(0)=0s AIB(1)=-100ms: INVALID") {
		t.Fatalf("candidate C wrong:\n%s", out)
	}
}

func TestFigure7MemoryReduction(t *testing.T) {
	out, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	// Every platform/task block must report a ≥20x memory reduction
	// versus Preload-full.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "memory vs Preload-full:") {
			continue
		}
		fields := strings.Fields(line)
		ratio, err := strconv.ParseFloat(strings.TrimSuffix(fields[3], "x"), 64)
		if err != nil {
			t.Fatalf("cannot parse %q", line)
		}
		if ratio < 20 {
			t.Fatalf("memory reduction only %.0fx (paper: 1-2 orders of magnitude): %s", ratio, line)
		}
	}
}

func TestFigure8OursWins(t *testing.T) {
	out, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FLOPs ratio Ours/StdPL-6bit:") {
		t.Fatalf("missing FLOPs ratio:\n%s", out)
	}
	// The accuracy gain must be positive.
	i := strings.Index(out, "accuracy gain ")
	if i < 0 || out[i+len("accuracy gain ")] != '+' {
		t.Fatalf("Ours must gain accuracy over StdPL-6bit:\n%s", out)
	}
}

func TestTable7OursBeatsRandomEverywhere(t *testing.T) {
	out, err := Table7()
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 || fields[0] == "benchmark" {
			continue
		}
		if !strings.HasSuffix(fields[1], "MB") {
			continue
		}
		gain, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			continue
		}
		rows++
		if gain < 0 {
			t.Fatalf("importance-guided allocation lost to random: %s", line)
		}
	}
	if rows != 12 {
		t.Fatalf("expected 12 Table 7 rows, parsed %d:\n%s", rows, out)
	}
}

func TestStorageMatchesPaperScale(t *testing.T) {
	out, err := Storage()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "five quantized versions {2..6}: 207.4MB") {
		t.Fatalf("storage accounting drifted (paper: 215 MB):\n%s", out)
	}
}

func TestSensitivityPreloadMonotone(t *testing.T) {
	out, err := SensitivityPreload()
	if err != nil {
		t.Fatal(err)
	}
	// The SST-2 column must be non-decreasing in |S|.
	var prev float64 = -1
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 6 || fields[0] == "|S|" {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		if v < prev-1e-9 {
			t.Fatalf("SST-2 accuracy decreased as |S| grew: %s", line)
		}
		prev = v
	}
}

func TestEnergyOrdering(t *testing.T) {
	out, err := Energy()
	if err != nil {
		t.Fatal(err)
	}
	// STI must cost more than the stalling pipeline (it does more
	// work) but stay within ~1.5x of the similar-accuracy preload
	// baseline.
	var vsStd, vsPre float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "STI vs StdPL-full:") {
			fmt.Sscanf(strings.Fields(line)[3], "%f", &vsStd)
		}
		if strings.HasPrefix(line, "STI vs Preload-full:") {
			fmt.Sscanf(strings.Fields(line)[3], "%f", &vsPre)
		}
	}
	if vsStd <= 1.0 {
		t.Fatalf("STI should consume notably more than StdPL-full, got %.2fx", vsStd)
	}
	if vsPre <= 1.0 || vsPre > 1.5 {
		t.Fatalf("STI vs Preload-full should be moderately above 1x, got %.2fx", vsPre)
	}
}

func TestLifetimeMotivation(t *testing.T) {
	out, err := Lifetime()
	if err != nil {
		t.Fatal(err)
	}
	kills := func(app string) int {
		line := lineAfter(out, app, "kills=")
		var n int
		fmt.Sscanf(line, "%d", &n)
		return n
	}
	if kills("HoldInMemory") < 150 {
		t.Fatalf("hold-in-memory must be the usual memory-killer victim:\n%s", out)
	}
	if kills("STI") > 30 {
		t.Fatalf("STI's MB-scale buffer should survive:\n%s", out)
	}
}

func TestSeqLenSweepShrinksSubmodels(t *testing.T) {
	out, err := SensitivitySeqLen()
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy at l=32 must exceed accuracy at l=256 (more compute
	// headroom at short inputs).
	var accs []float64
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] == "seq" {
			continue
		}
		if v, err := strconv.ParseFloat(fields[3], 64); err == nil {
			accs = append(accs, v)
		}
	}
	if len(accs) != 5 {
		t.Fatalf("parsed %d rows:\n%s", len(accs), out)
	}
	if accs[0] <= accs[len(accs)-1] {
		t.Fatalf("short inputs should score higher: %v", accs)
	}
}

func TestFreqSweepRuns(t *testing.T) {
	out, err := SensitivityFreq()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0.50") || !strings.Contains(out, "1.00") {
		t.Fatalf("DVFS sweep missing operating points:\n%s", out)
	}
}
