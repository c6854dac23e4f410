// Command sti-vet runs the repo's invariant analyzers (see
// internal/analysis) over the module: locknoblock, ctxflow,
// budgetbalance, statatomic, hotalloc, plus lostcancel, copylocks and
// nilness passes.
//
// Usage:
//
//	go run ./cmd/sti-vet ./...
//	go run ./cmd/sti-vet -json -baseline internal/analysis/baseline.json ./...
//
// Exit status is 1 when any enforced (non-report-only) analyzer produces
// a finding that is not in the baseline. Each baseline entry admits one
// finding. -strict promotes report-only findings to failures too, and
// fails on a baseline entry that no finding matches. -writebaseline
// records the current findings as the new baseline.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"sti/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	baselinePath := flag.String("baseline", "", "baseline file of known findings that do not fail the run")
	writeBaseline := flag.String("writebaseline", "", "write current findings to this baseline file and exit")
	strict := flag.Bool("strict", false, "report-only findings also fail the run")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modRoot, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sti-vet: %v\n", err)
		os.Exit(2)
	}

	fset, pkgs, err := analysis.LoadModule(modRoot, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sti-vet: %v\n", err)
		os.Exit(2)
	}

	suite := analysis.Suite()
	runner := &analysis.Runner{Fset: fset, Packages: pkgs, Analyzers: suite}
	diags, err := runner.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sti-vet: %v\n", err)
		os.Exit(2)
	}

	baseline := map[analysis.BaselineEntry]int{}
	if *baselinePath != "" {
		baseline, err = analysis.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sti-vet: baseline: %v\n", err)
			os.Exit(2)
		}
	}
	findings, unmatched := analysis.ToFindings(diags, suite, modRoot, baseline)

	if *writeBaseline != "" {
		if err := analysis.WriteBaseline(*writeBaseline, findings); err != nil {
			fmt.Fprintf(os.Stderr, "sti-vet: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("sti-vet: wrote %d findings to %s\n", len(findings), *writeBaseline)
		return
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "sti-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			tag := ""
			if f.Baselined {
				tag = " (baselined)"
			} else if f.ReportOnly {
				tag = " (report-only)"
			}
			fmt.Printf("%s:%d:%d: %s: %s%s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message, tag)
		}
	}

	for _, e := range unmatched {
		fmt.Printf("%s: %s: baseline entry matches no finding: %s\n", e.File, e.Analyzer, e.Message)
	}
	fail := 0
	if *strict {
		fail = len(unmatched)
	}
	for _, f := range findings {
		if f.Baselined {
			continue
		}
		if f.ReportOnly && !*strict {
			continue
		}
		fail++
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "sti-vet: %d failing finding(s)\n", fail)
		os.Exit(1)
	}
}

// moduleRoot locates the enclosing module directory.
func moduleRoot() (string, error) {
	var out bytes.Buffer
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(out.String())
	if gomod == "" || gomod == "/dev/null" || gomod == "NUL" {
		return "", fmt.Errorf("not inside a Go module")
	}
	return strings.TrimSuffix(strings.TrimSuffix(gomod, "go.mod"), string(os.PathSeparator)), nil
}
