// Command ssvc-lint enforces the repository's simulator invariants at
// the source level: every rule of analysis.Rules, over the packages the
// rule names. See internal/analysis and the "Invariants" section of
// DESIGN.md.
//
// Usage:
//
//	ssvc-lint [-root dir] [-json] [packages]
//
// The package argument is accepted for familiarity (`ssvc-lint ./...`)
// but the tool always analyzes the rule-defined package sets of the
// enclosing module. It prints one `file:line: [analyzer] message` per
// finding and exits 1 if any survive their //ssvc:allow markers (a
// marker that excuses nothing is itself a finding, so exceptions cannot
// rot). -json switches the findings stream to a JSON array of
// {file,line,analyzer,message} objects (exit codes unchanged) for
// editor and CI integration; the plain format is matched by
// .github/problem-matchers/ssvc-lint.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"swizzleqos/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("ssvc-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of file:line lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *root == "" {
		r, err := findRoot()
		if err != nil {
			fmt.Fprintln(stderr, "ssvc-lint:", err)
			return 2
		}
		*root = r
	}
	diags, err := analysis.RunAll(*root)
	if err != nil {
		fmt.Fprintln(stderr, "ssvc-lint:", err)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "ssvc-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "ssvc-lint: %d invariant violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable shape of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the findings as a single indented JSON array. An
// empty run prints `[]` so consumers never special-case the clean exit.
func writeJSON(w *os.File, diags []analysis.Diagnostic) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{File: d.File, Line: d.Line, Analyzer: d.Analyzer, Message: d.Message})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// findRoot walks upward from the working directory to the nearest
// go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
