package analysis

import (
	"bytes"
	"fmt"
	"go/token"
	"os"
	"runtime"
	"slices"
	"strings"

	"swizzleqos/internal/runner"
)

// pass is one rule at work: where its diagnostics go, and what it may
// consult. The interprocedural checkers embed it.
type pass struct {
	l     *Loader
	cg    *callGraph // set for tree rules only
	rule  string
	diags []Diagnostic
}

// report records one finding of the pass's rule at pos.
func (p *pass) report(pos token.Pos, format string, args ...any) {
	file, line := p.l.Rel(pos)
	p.diags = append(p.diags, Diagnostic{
		File: file, Line: line, Analyzer: p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// check runs the rule's typed body over already-loaded packages.
func (r Rule) check(l *Loader, cg *callGraph, pkgs []*Package) []Diagnostic {
	p := &pass{l: l, cg: cg, rule: r.Name}
	if r.tree != nil {
		r.tree(p, pkgs)
	} else {
		for _, pkg := range pkgs {
			r.perPackage(p, pkg)
		}
	}
	return p.diags
}

// Run executes one rule of the table, by name, over the given
// module-relative packages (the fixture tests' entry point), //ssvc:allow
// markers included. A tree rule builds its call graph from everything l
// has loaded by then, so its findings can depend on what else went
// through the same Loader.
func Run(l *Loader, name string, rels []string) ([]Diagnostic, error) {
	for _, r := range Rules {
		if r.Name == name {
			r.Packages = fixed(rels)
			return runRules(l, rels, []Rule{r})
		}
	}
	return nil, fmt.Errorf("analysis: no rule named %q", name)
}

// RunAll executes every rule of the table over the module rooted at
// root and returns the findings no //ssvc:allow marker excuses, sorted.
// This is the single entry point shared by cmd/ssvc-lint and the
// package's self-test, so "the tool passes" and "the test passes" can
// never drift apart.
func RunAll(root string) ([]Diagnostic, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	all, err := modulePackageRels(l)
	if err != nil {
		return nil, err
	}
	return runRules(l, all, Rules)
}

// runRules type-checks the packages all names once, serially (the
// Loader is not safe for concurrent use), builds the one call graph the
// tree rules share, and resolves each rule's package set, where a
// package that is not in the module is an error, not a rule silently run
// over what is left. After that the Loader's caches are read-only and
// the rules fan out on a bounded pool: one task per package for a
// per-package rule, one per tree or raw rule. runner.Map returns results
// in task order, so the output does not depend on scheduling. The
// //ssvc:allow markers in all then excuse what they name.
func runRules(l *Loader, all []string, rules []Rule) ([]Diagnostic, error) {
	scope, err := l.loadAll(all)
	if err != nil {
		return nil, err
	}
	cg := buildCallGraph(l)

	type result struct {
		diags []Diagnostic
		err   error
	}
	var tasks []func() result
	for _, r := range rules {
		rels, err := r.Packages(l)
		if err != nil {
			return nil, err
		}
		if r.raw != nil {
			tasks = append(tasks, func() result {
				rl, err := NewLoader(l.Root)
				if err != nil {
					return result{err: err}
				}
				diags, err := r.raw(rl, rels)
				return result{diags, err}
			})
			continue
		}
		pkgs, err := l.loadAll(rels)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.Name, err)
		}
		if r.tree != nil {
			tasks = append(tasks, func() result { return result{diags: r.check(l, cg, pkgs)} })
			continue
		}
		for i := range pkgs {
			tasks = append(tasks, func() result { return result{diags: r.check(l, nil, pkgs[i:i+1])} })
		}
	}
	pool := runner.New(min(runtime.NumCPU(), 8))
	var diags []Diagnostic
	for _, res := range runner.Map(pool, len(tasks), func(i int) result { return tasks[i]() }) {
		if res.err != nil {
			return nil, res.err
		}
		diags = append(diags, res.diags...)
	}
	diags, err = excuse(l, scope, rules, diags)
	if err != nil {
		return nil, err
	}
	SortDiagnostics(diags)
	return diags, nil
}

// MarkAllow states an exception at its site: a line
//
//	//ssvc:allow <rule> <why>
//
// standing alone excuses <rule>'s findings on the next line only. The
// marker is itself a finding of rule "allow" when it gives no reason,
// names a rule whose proofs admit no exception, or excuses nothing, so
// an exception cannot outlive the code it excused.
const MarkAllow = "//ssvc:allow"

// noExceptions are the rules whose proofs hold on the shipped tree with
// no exception at all.
var noExceptions = map[string]bool{"durability": true, "floatconv": true, "marker": true}

// knownMarkers are the markers some rule reads; every marker comment
// begins with markerPrefix.
var knownMarkers = []string{HotpathMarker, HotpathCold, MarkAllow, MarkSerialOnly, MarkBarrier}

const markerPrefix = "//ssvc:"

// unknownMarkers flags a comment that begins like a marker but names
// none of knownMarkers: a misspelt //ssvc:hotpath would silently take
// its function out of the hotpath rule, and a marker that no rule reads
// would look like a contract that nobody checks. A comment that only
// mentions a marker after other words is prose, and is not looked at.
func unknownMarkers(p *pass, pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, markerPrefix) ||
					slices.ContainsFunc(knownMarkers, func(m string) bool { return isMarker(c.Text, m) }) {
					continue
				}
				name, _, _ := strings.Cut(c.Text, " ")
				p.report(c.Pos(), "%s is no marker: the markers are %s", name, strings.Join(knownMarkers, ", "))
			}
		}
	}
}

// excuse drops the findings the //ssvc:allow markers in pkgs excuse and
// adds a finding for each marker that fails. A marker naming a rule
// that is not among rules is left alone: what it would excuse was not
// looked for.
func excuse(l *Loader, pkgs []*Package, rules []Rule, diags []Diagnostic) ([]Diagnostic, error) {
	type site struct {
		file, rule string
		line       int
	}
	found := map[site]bool{}
	for _, d := range diags {
		found[site{d.File, d.Analyzer, d.Line}] = true
	}
	ran := map[string]bool{}
	for _, r := range rules {
		ran[r.Name] = true
	}
	excused := map[site]bool{}
	var failed []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			var src []byte
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !isMarker(c.Text, MarkAllow) {
						continue
					}
					tf := l.Fset.File(c.Pos())
					if src == nil {
						var err error
						if src, err = os.ReadFile(tf.Name()); err != nil {
							return nil, err
						}
					}
					file, line := l.Rel(c.Pos())
					alone := len(bytes.TrimSpace(src[tf.Offset(tf.LineStart(line)):tf.Offset(c.Pos())])) == 0
					rule, why, _ := strings.Cut(strings.TrimSpace(strings.TrimPrefix(c.Text, MarkAllow)), " ")
					below := site{file, rule, line + 1}
					msg := ""
					switch {
					case strings.TrimSpace(why) == "":
						msg = fmt.Sprintf("%s %s gives no reason; say why the finding below is safe", MarkAllow, rule)
					case noExceptions[rule]:
						msg = fmt.Sprintf("%s names %s, which admits no exceptions; fix the finding instead", MarkAllow, rule)
					case !ran[rule]:
					case alone && found[below]:
						excused[below] = true
					default:
						msg = fmt.Sprintf("%s %s excuses nothing: it must stand alone on the line above a %s finding", MarkAllow, rule, rule)
					}
					if msg != "" {
						failed = append(failed, Diagnostic{File: file, Line: line, Analyzer: "allow", Message: msg})
					}
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !excused[site{d.File, d.Analyzer, d.Line}] {
			kept = append(kept, d)
		}
	}
	return append(kept, failed...), nil
}
