package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json: the contract later changes are judged by.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []boundedMetric `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// resultSet is the untraced results of one directory, by workload.
type resultSet map[string][]*result

func readResultSet(dir string) (resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result_*_trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("bench: no result_*_trace0.json files in %s", dir)
	}
	set := make(resultSet)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", p, err)
		}
		set[r.Provenance.Workload] = append(set[r.Provenance.Workload], &r)
	}
	return set, nil
}

func (rs resultSet) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range rs[workload] {
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// sameHost reports whether two results may be compared: everything about
// the host but the commit under test must agree.
func sameHost(a, b hostFacts) bool {
	a.GitCommit, b.GitCommit = "", ""
	return a == b
}

// verdicts of one row of the comparison.
const (
	rowOK         = "ok"
	rowRegression = "REGRESSION"
	rowUnresolved = "unresolved" // run-to-run spread wider than the bound: no verdict either way
	rowRefused    = "refused"    // host facts differ, or a side has no runs
)

type compareRow struct {
	Workload, Metric string
	Before, After    float64 // medians
	Spread           float64 // before's interquartile distance / median
	Bound            float64
	Verdict          string
}

// compareSets applies each end-to-end metric's bound to every workload:
// after's median may be worse than before's by at most bound x before's
// median.
func compareSets(b *benchmarkFile, before, after resultSet) []compareRow {
	var rows []compareRow
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			row := compareRow{Workload: w.Name, Metric: m.Name, Bound: m.Bound, Verdict: rowOK}
			bv, av := before.values(w.Name, m.Name), after.values(w.Name, m.Name)
			switch {
			case len(bv) == 0 || len(av) == 0:
				row.Verdict = rowRefused
			case !sameHost(before[w.Name][0].Provenance.Host, after[w.Name][0].Provenance.Host):
				row.Verdict = rowRefused
			default:
				row.Before, row.After, row.Spread = median(bv), median(av), spread(bv)
				worse := row.After - row.Before
				if m.Better == "higher" {
					worse = -worse
				}
				switch {
				case row.Spread > m.Bound:
					row.Verdict = rowUnresolved
				case worse > m.Bound*math.Abs(row.Before):
					row.Verdict = rowRegression
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// compareMain is `bench compare <before-dir> <after-dir>`: 0 when no
// metric regressed, 1 on a regression or a refused row, 2 on bad usage.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <before-dir> <after-dir>")
		return 2
	}
	rows, err := compareDirs(args[0], args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	code := 0
	fmt.Printf("%-16s %-20s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "before", "after", "change", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-16s %-20s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n", r.Workload, r.Metric,
			r.Before, r.After, 100*ratio(r.After-r.Before, r.Before), 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == rowRegression || r.Verdict == rowRefused {
			code = 1
		}
	}
	return code
}

func compareDirs(beforeDir, afterDir string) ([]compareRow, error) {
	e, err := findEnv()
	if err != nil {
		return nil, err
	}
	b, err := readBenchmarkFile(e.root)
	if err != nil {
		return nil, err
	}
	before, err := readResultSet(beforeDir)
	if err != nil {
		return nil, err
	}
	after, err := readResultSet(afterDir)
	if err != nil {
		return nil, err
	}
	return compareSets(b, before, after), nil
}
