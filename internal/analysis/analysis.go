// Package analysis is the repository's in-tree invariant linter
// (cmd/ssvc-lint). It enforces at the source level the guarantees the
// simulator's results rest on, which are otherwise only checked at
// runtime by goldens and benchmarks. The rules are the entries of the
// Rules table in rules.go, which also names the packages each covers;
// every rule's own comment says what it proves, and DESIGN.md
// ("Invariants") documents them as numbered invariants.
//
// A rule is written as a Rules entry with one body: a per-package
// check, an interprocedural check over the shared call graph
// (callgraph.go), or — hotpath alone — a parse-only check; each
// reports through pass.report. No rule builds a control-flow graph or
// runs a fixpoint: every check is a walk of the typed syntax tree.
//
// The package is stdlib-only (go/parser + go/types with the source
// importer); the module has no dependencies and the build environment
// has no network, so golang.org/x/tools is deliberately off the table.
// Justified exceptions are //ssvc:allow markers at their sites (run.go).
package analysis

import (
	"fmt"
	"sort"
)

// Diagnostic is one finding. File is slash-separated and relative to
// the module root so rendered diagnostics are stable across machines.
type Diagnostic struct {
	File     string
	Line     int
	Analyzer string
	Message  string
}

// String renders the diagnostic in the tool's one-line format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
}

// SortDiagnostics orders findings by file, line, analyzer, message.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
