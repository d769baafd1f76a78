package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestSplitCond(t *testing.T) {
	for _, tc := range []struct {
		cond  string
		holds bool
		want  []string
	}{
		{"a && !(b || c)", true, []string{"a=true", "b=false", "c=false"}},
		{"!(a < b)", true, []string{"a < b=false"}},
		{"((a < b))", false, []string{"a < b=false"}},
		{"a || b && c", false, []string{"a=false"}}, // b && c is false: says nothing of b or c
		{"a && b", false, nil},
		{"a || b", true, nil},
	} {
		cond, err := parser.ParseExpr(tc.cond)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		splitCond(cond, tc.holds, func(c ast.Expr, holds bool) {
			if _, paren := c.(*ast.ParenExpr); paren {
				t.Errorf("%s: leaf %s still parenthesised", tc.cond, types.ExprString(c))
			}
			got = append(got, types.ExprString(c)+"="+map[bool]string{true: "true", false: "false"}[holds])
		})
		if !slices.Equal(got, tc.want) {
			t.Errorf("splitCond(%s, %v) = %v, want %v", tc.cond, tc.holds, got, tc.want)
		}
	}
}

// TestSolve runs a toy must-analysis (a set of names, intersected at
// joins: `set(x)` adds x, an assignment to x removes it, a condition
// that is a bare name holds on its true edge) over a body with a loop,
// a fact killed on one branch inside it, an early return and dead code.
func TestSolve(t *testing.T) {
	const src = `package p
func f(p, q bool) {
	set(a)
	set(b)
	for p {
		if q {
			b = 0
		}
		use()
	}
	return
	dead()
}`
	file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	type facts = map[string]bool
	joins := 0
	transfers := map[string]int{}
	f := flow[facts]{
		clone: maps.Clone[facts],
		join: func(cur, in facts) (facts, bool) {
			joins++
			merged := facts{}
			for k := range cur {
				if in[k] {
					merged[k] = true
				}
			}
			return merged, len(merged) != len(cur)
		},
		transfer: func(n ast.Node, s facts) {
			transfers[types.ExprString(exprOf(n))]++
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call := n.X.(*ast.CallExpr); len(call.Args) == 1 {
					s[types.ExprString(call.Args[0])] = true
				}
			case *ast.AssignStmt:
				delete(s, types.ExprString(n.Lhs[0]))
			}
		},
		leaf: func(c ast.Expr, holds bool, s facts) {
			if id, ok := c.(*ast.Ident); ok && holds {
				s[id.Name] = true
			}
		},
	}
	body := file.Decls[0].(*ast.FuncDecl).Body
	checks := map[string]int{}
	at := map[string]string{}
	solve(buildCFG(body), facts{}, f).replay(func(n ast.Node, s facts) {
		key := types.ExprString(exprOf(n))
		checks[key]++
		var names []string
		for name := range s {
			names = append(names, name)
		}
		slices.Sort(names)
		at[key] = strings.Join(names, ",")
	})

	if _, reached := checks["dead()"]; reached {
		t.Error("the statement after the return was replayed: its block must stay unreached")
	}
	// Inside the loop p holds (the leaf on the true edge), q does not
	// survive the join after the if, and b, killed on the q branch,
	// comes back around the loop gone.
	if got, want := at["use()"], "a,p"; got != want {
		t.Errorf("facts at use() = %q, want %q", got, want)
	}
	if got, want := at["return"], "a"; got != want {
		t.Errorf("facts at return = %q, want %q (b is killed on one path round the loop, p is not known false)", got, want)
	}
	for key, n := range checks {
		if n != 1 {
			t.Errorf("%s checked %d times, want once", key, n)
		}
	}
	if transfers["use()"] < 3 {
		t.Errorf("use() transferred %d times: the loop body must run again once b is lost, and once more in the replay", transfers["use()"])
	}
	// The loop head absorbs the back edge twice (b present, then gone),
	// the if's merge point at least once per pass round the loop, and
	// the loop exit once; a block's first arrival is not a join.
	if joins < 4 {
		t.Errorf("join ran %d times, want at least 4", joins)
	}
}

// exprOf names a CFG node of TestSolve's body by its expression.
func exprOf(n ast.Node) ast.Expr {
	switch n := n.(type) {
	case *ast.ExprStmt:
		return n.X
	case *ast.AssignStmt:
		return n.Lhs[0]
	case *ast.ReturnStmt:
		return ast.NewIdent("return")
	}
	return n.(ast.Expr)
}

// TestRunRulesFailsClosed: a rule whose package set names something that
// is not a package of the module is an error, for every kind of rule,
// not a rule quietly run over what is left.
func TestRunRulesFailsClosed(t *testing.T) {
	root := t.TempDir()
	for name, content := range map[string]string{
		"go.mod":     "module tiny\n\ngo 1.22\n",
		"here/a.go":  "package here\n",
		"there/b.go": "package there\n\nfunc F() { panic(1) }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rules := func(rels ...string) []Rule {
		return []Rule{
			{Name: "panicfreeze", Packages: fixed(rels), perPackage: panicFreeze},
			{Name: "tree", Packages: fixed(rels), tree: func(*pass, []*Package) {}},
			{Name: "raw", Packages: fixed(rels), raw: func(l *Loader, rels []string) ([]Diagnostic, error) {
				_, _, err := HotpathFuncs(l, rels)
				return nil, err
			}},
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	all := []string{"here", "there"}
	ds, err := runRules(l, all, rules(all...))
	if err != nil || len(ds) != 1 || ds[0].File != "there/b.go" {
		t.Fatalf("control: runRules = %v, %v; want the one panic in there/b.go", ds, err)
	}
	for _, r := range rules("here", "nosuchpkg", "there") {
		if ds, err := runRules(l, all, []Rule{r}); err == nil {
			t.Errorf("%s rule over a package set naming nosuchpkg ran anyway: %v", r.Name, ds)
		}
	}
}
