package analysis

import (
	"fmt"
	"go/token"
	"runtime"

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
// module-relative packages (the fixture tests' entry point). A tree rule
// builds its call graph from everything l has loaded by then, so its
// findings can depend on what else went through the same Loader.
func Run(l *Loader, name string, rels []string) ([]Diagnostic, error) {
	for _, r := range Rules {
		if r.Name != name {
			continue
		}
		if r.raw != nil {
			return r.raw(l, rels)
		}
		pkgs, err := l.loadAll(rels)
		if err != nil {
			return nil, err
		}
		var cg *callGraph
		if r.tree != nil {
			cg = buildCallGraph(l)
		}
		diags := r.check(l, cg, pkgs)
		SortDiagnostics(diags)
		return diags, nil
	}
	return nil, fmt.Errorf("analysis: no rule named %q", name)
}

// RunAll executes every rule of the table over the module rooted at
// root, filters the result through the allowlist (nil for none), and
// returns the surviving diagnostics sorted. This is the single entry
// point shared by cmd/ssvc-lint and the package's self-test, so "the
// tool passes" and "the test passes" can never drift apart.
func RunAll(root string, allow *Allowlist) ([]Diagnostic, error) {
	diags, err := runRules(root, Rules)
	if err != nil {
		return nil, err
	}
	diags = allow.Filter(diags)
	SortDiagnostics(diags)
	return diags, nil
}

// runRules type-checks every module package once, serially (the Loader
// is not safe for concurrent use), builds the one call graph the tree
// rules share, and resolves each rule's package set, where a package
// that is not in the module is an error, not a rule silently run over
// what is left. After that the Loader's caches are read-only and the
// rules fan out on a bounded pool: one task per package for a
// per-package rule, one per tree or raw rule. runner.Map returns results
// in task order, so the output does not depend on scheduling.
func runRules(root string, rules []Rule) ([]Diagnostic, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	all, err := modulePackageRels(l)
	if err != nil {
		return nil, err
	}
	if _, err := l.loadAll(all); err != nil {
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
				rl, err := NewLoader(root)
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
	return diags, nil
}
