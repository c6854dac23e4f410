package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is a diagnostic prepared for output: position relative to the
// module root, baseline key, and exit-code relevance.
type Finding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"` // module-relative
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	ReportOnly bool   `json:"report_only,omitempty"`
	Baselined  bool   `json:"baselined,omitempty"`
}

// entry is f's baseline entry: analyzer + file + message, which stays
// put across line-number churn (the message embeds stable context like
// lock names and op kinds).
func (f Finding) entry() BaselineEntry {
	return BaselineEntry{Analyzer: f.Analyzer, File: f.File, Message: f.Message}
}

// Baseline is the checked-in list of known findings that must not fail
// CI (typically report-only hotalloc findings awaiting the zero-copy
// work).
type Baseline struct {
	Findings []BaselineEntry `json:"findings"`
}

// BaselineEntry mirrors Finding's key fields. Each entry in a baseline
// admits one finding, so n identical findings need n identical entries.
type BaselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Message  string `json:"message"`
}

// LoadBaseline reads a baseline file and counts its entries; a missing
// file is an empty baseline.
func LoadBaseline(path string) (map[BaselineEntry]int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[BaselineEntry]int{}, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	out := make(map[BaselineEntry]int, len(b.Findings))
	for _, e := range b.Findings {
		out[e]++
	}
	return out, nil
}

// WriteBaseline persists the given findings as the new baseline.
func WriteBaseline(path string, findings []Finding) error {
	b := Baseline{Findings: make([]BaselineEntry, 0, len(findings))}
	for _, f := range findings {
		b.Findings = append(b.Findings, f.entry())
	}
	sortEntries(b.Findings)
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ToFindings converts diagnostics to findings with module-relative
// paths, marking report-only analyzers and the findings the baseline
// admits, one per entry. It returns, sorted, the baseline entries that
// no finding used: each stands for a finding that has gone.
func ToFindings(diags []Diagnostic, analyzers []*Analyzer, modRoot string, baseline map[BaselineEntry]int) (findings []Finding, unmatched []BaselineEntry) {
	reportOnly := map[string]bool{}
	for _, a := range analyzers {
		if a.ReportOnly {
			reportOnly[a.Name] = true
		}
	}
	left := make(map[BaselineEntry]int, len(baseline))
	for e, n := range baseline {
		left[e] = n
	}
	findings = make([]Finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if modRoot != "" {
			if rel, err := filepath.Rel(modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		f := Finding{
			Analyzer:   d.Analyzer,
			File:       file,
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Message:    d.Message,
			ReportOnly: reportOnly[d.Analyzer],
		}
		if left[f.entry()] > 0 {
			left[f.entry()]--
			f.Baselined = true
		}
		findings = append(findings, f)
	}
	for e, n := range left {
		for ; n > 0; n-- {
			unmatched = append(unmatched, e)
		}
	}
	sortEntries(unmatched)
	return findings, unmatched
}

// sortEntries orders baseline entries by file, analyzer and message.
func sortEntries(es []BaselineEntry) {
	sort.Slice(es, func(i, j int) bool {
		a, c := es[i], es[j]
		if a.File != c.File {
			return a.File < c.File
		}
		if a.Analyzer != c.Analyzer {
			return a.Analyzer < c.Analyzer
		}
		return a.Message < c.Message
	})
}

// Suite is the full sti-vet analyzer set.
func Suite() []*Analyzer {
	return []*Analyzer{
		LockNoBlock,
		CtxFlow,
		BudgetBalance,
		StatAtomic,
		HotAlloc,
		LostCancel,
		CopyLocks,
		Nilness,
	}
}
