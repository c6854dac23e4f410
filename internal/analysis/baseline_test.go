package analysis_test

import (
	"go/token"
	"path/filepath"
	"reflect"
	"testing"

	"sti/internal/analysis"
)

// TestBaselineCountsFindings checks that each baseline entry admits one
// finding: two entries for a message baseline two of its three findings,
// not all three, and an entry that no finding matches comes back as
// unmatched. Writing the findings back keeps one entry per finding.
func TestBaselineCountsFindings(t *testing.T) {
	dir := t.TempDir()
	diag := func(line int, msg string) analysis.Diagnostic {
		pos := token.Position{Filename: filepath.Join(dir, "a.go"), Line: line}
		return analysis.Diagnostic{Analyzer: "hotalloc", Pos: pos, Message: msg}
	}
	entry := func(msg string) analysis.BaselineEntry {
		return analysis.BaselineEntry{Analyzer: "hotalloc", File: "a.go", Message: msg}
	}
	found := []analysis.Diagnostic{diag(1, "x"), diag(2, "x"), diag(3, "x")}
	path := filepath.Join(dir, "baseline.json")

	empty, err := analysis.LoadBaseline(path)
	if err != nil || len(empty) != 0 {
		t.Fatalf("missing baseline file: %v, %v; want an empty baseline", empty, err)
	}
	x := analysis.Finding{Analyzer: "hotalloc", File: "a.go", Message: "x"}
	gone := x
	gone.Message = "gone"
	if err := analysis.WriteBaseline(path, []analysis.Finding{x, x, gone}); err != nil {
		t.Fatal(err)
	}
	baseline, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[analysis.BaselineEntry]int{entry("x"): 2, entry("gone"): 1}; !reflect.DeepEqual(baseline, want) {
		t.Fatalf("loaded %v, want %v", baseline, want)
	}

	findings, unmatched := analysis.ToFindings(found, nil, dir, baseline)
	var admitted []int
	for _, f := range findings {
		if f.Baselined {
			admitted = append(admitted, f.Line)
		}
	}
	if !reflect.DeepEqual(admitted, []int{1, 2}) {
		t.Fatalf("baselined lines %v, want [1 2]", admitted)
	}
	if want := []analysis.BaselineEntry{entry("gone")}; !reflect.DeepEqual(unmatched, want) {
		t.Fatalf("unmatched %v, want %v", unmatched, want)
	}
	if baseline[entry("x")] != 2 {
		t.Fatalf("ToFindings changed the caller's baseline: %v", baseline)
	}
}
