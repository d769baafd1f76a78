package analysis_test

import (
	"bufio"
	"errors"
	"fmt"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swizzleqos/internal/analysis"
)

// repoRoot resolves the module root from the test's working directory
// (internal/analysis).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root %s has no go.mod: %v", root, err)
	}
	return root
}

func newLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	l, err := analysis.NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// wantMarkers scans the fixture packages for `// want:<analyzer>...`
// trailing comments, one name per expected finding on that line (on the
// line above for a name prefixed ^), and returns the expected finding
// multiset keyed "file:line analyzer", with file module-relative.
func wantMarkers(t *testing.T, root string, rels ...string) map[string]int {
	t.Helper()
	want := map[string]int{}
	for _, rel := range rels {
		dir := filepath.Join(root, filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for lineno := 1; sc.Scan(); lineno++ {
				line := sc.Text()
				i := strings.Index(line, "// want:")
				if i < 0 {
					continue
				}
				for _, an := range strings.Fields(line[i+len("// want:"):]) {
					at := lineno
					if rest, ok := strings.CutPrefix(an, "^"); ok {
						an, at = rest, lineno-1
					}
					want[fmt.Sprintf("%s/%s:%d %s", rel, e.Name(), at, an)]++
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	return want
}

func diagSet(ds []analysis.Diagnostic) map[string]int {
	got := map[string]int{}
	for _, d := range ds {
		got[fmt.Sprintf("%s:%d %s", d.File, d.Line, d.Analyzer)]++
	}
	return got
}

// compareFindings fails the test with a readable diff when the actual
// findings don't match the fixture's want markers exactly.
func compareFindings(t *testing.T, want, got map[string]int, ds []analysis.Diagnostic) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("want %d finding(s) at %s, got %d", n, k, got[k])
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Errorf("unexpected finding at %s (x%d)", k, n)
		}
	}
	if t.Failed() {
		for _, d := range ds {
			t.Logf("reported: %s", d)
		}
	}
}

// TestRuleFixtures runs every rule over its fixture packages and
// compares the findings with the fixtures' `// want:` markers; a rule
// of analysis.Rules with no fixture row fails it.
// Per-package rules share one Loader, since what they find in a package
// cannot depend on another; a tree rule gets a fresh one, because its
// call graph indexes everything its Loader has loaded.
func TestRuleFixtures(t *testing.T) {
	const src = "internal/analysis/testdata/src/"
	shared := newLoader(t)
	covered := map[string]bool{}
	for _, tc := range []struct {
		rule string
		pkgs []string
		tree bool
	}{
		{rule: "determinism", pkgs: []string{"determbad", "determclean"}},
		{rule: "determinism", pkgs: []string{"allowbad"}},
		{rule: "panicfreeze", pkgs: []string{"panicbad"}},
		{rule: "countersafety", pkgs: []string{"countersafebad"}},
		{rule: "units", pkgs: []string{"unitsbad"}},
		// The real escape-analysis pipeline (go build -gcflags=-m).
		{rule: "hotpath", pkgs: []string{"hotbad"}},
		{rule: "durability", pkgs: []string{"durabilitybad"}, tree: true},
		{rule: "floatconv", pkgs: []string{"floatbad"}},
		{rule: "marker", pkgs: []string{"markerbad"}},
	} {
		covered[tc.rule] = true
		t.Run(tc.rule+"/"+tc.pkgs[0], func(t *testing.T) {
			if tc.rule == "hotpath" && testing.Short() {
				t.Skip("invokes the compiler")
			}
			l := shared
			if tc.tree {
				l = newLoader(t)
			}
			var rels []string
			for _, p := range tc.pkgs {
				rels = append(rels, src+p)
			}
			ds, err := analysis.Run(l, tc.rule, rels)
			if err != nil {
				t.Fatal(err)
			}
			compareFindings(t, wantMarkers(t, repoRoot(t), rels...), diagSet(ds), ds)
		})
	}
	for _, r := range analysis.Rules {
		if !covered[r.Name] {
			t.Errorf("rule %s has no fixture row", r.Name)
		}
	}
}

// TestMutantsFailToTypeCheck: the §3.3 cost product Frame·L is
// wrap-free because its operands are 32-bit (noc.Mul32) and the length
// bound is a uint32 constant (admit.MaxPacketLen). Each fixture is a
// faithful copy of that path with the bound widened from 2^20 to 2^62 —
// rangemut widens the constant, widemut widens it with its type — and
// must fail to type-check at its want:typecheck line.
func TestMutantsFailToTypeCheck(t *testing.T) {
	root := repoRoot(t)
	for _, name := range []string{"rangemut", "widemut"} {
		t.Run(name, func(t *testing.T) {
			rel := "internal/analysis/testdata/src/" + name
			l := newLoader(t)
			_, err := l.Load(l.Module + "/" + rel)
			var te types.Error
			if !errors.As(err, &te) {
				t.Fatalf("%s type-checked (err %v): a length bound past 32 bits compiles", name, err)
			}
			file, line := l.Rel(te.Pos)
			want := wantMarkers(t, root, rel)
			if got := fmt.Sprintf("%s:%d typecheck", file, line); len(want) != 1 || want[got] != 1 {
				t.Fatalf("type error at %s:%d (%s), want it at the want:typecheck line %v", file, line, te.Msg, want)
			}
		})
	}
}

// TestHotpathFuncs checks annotation scanning alone: names, ranges, and
// coldpath exclusions, without invoking the compiler.
func TestHotpathFuncs(t *testing.T) {
	l := newLoader(t)
	funcs, dirs, err := analysis.HotpathFuncs(l, []string{"internal/analysis/testdata/src/hotbad"})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != "./internal/analysis/testdata/src/hotbad" {
		t.Fatalf("dirs = %v", dirs)
	}
	byName := map[string]analysis.HotFunc{}
	for _, f := range funcs {
		byName[f.Name] = f
	}
	for _, name := range []string{"Hot", "Cold", "Fine"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("annotated func %s not found (got %v)", name, funcs)
		}
	}
	if _, ok := byName["Unannotated"]; ok {
		t.Error("Unannotated has no marker but was collected")
	}
	cold := byName["Cold"]
	if len(cold.Exclude) != 1 {
		t.Fatalf("Cold exclusions = %v, want one coldpath range", cold.Exclude)
	}
	ex := cold.Exclude[0]
	if !(ex[0] > cold.Start && ex[1] <= cold.End && ex[0] < ex[1]) {
		t.Errorf("Cold exclusion %v not inside body %d-%d", ex, cold.Start, cold.End)
	}
}

// TestHotpathDiagnose feeds canned compiler output so the matching logic
// is covered without a build.
func TestHotpathDiagnose(t *testing.T) {
	funcs := []analysis.HotFunc{{
		Name:    "Step",
		File:    "internal/x/x.go",
		Start:   10,
		End:     30,
		Exclude: [][2]int{{20, 22}},
	}}
	out := []byte(strings.Join([]string{
		"internal/x/x.go:12:9: new(big) escapes to heap", // inside range: flagged
		"internal/x/x.go:21:3: moved to heap: b",         // coldpath-excluded
		"internal/x/x.go:40:9: new(big) escapes to heap", // outside range
		"internal/x/x.go:13:5: inlining call to helper",  // not a heap diag
		"internal/y/y.go:12:9: new(big) escapes to heap", // other file
		"internal/x/x.go:14:2: leaking param: p",         // not a heap diag
		"not a diagnostic line",
		"internal/x/x.go:15:7: make([]int, n) escapes to heap", // inside range: flagged
	}, "\n"))
	ds := analysis.HotpathDiagnose(funcs, out)
	got := diagSet(ds)
	want := map[string]int{
		"internal/x/x.go:12 hotpath": 1,
		"internal/x/x.go:15 hotpath": 1,
	}
	compareFindings(t, want, got, ds)
	for _, d := range ds {
		if !strings.Contains(d.Message, "Step") {
			t.Errorf("message %q does not name the annotated function", d.Message)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := analysis.Diagnostic{File: "internal/a/b.go", Line: 7, Analyzer: "durability", Message: "OK written outside acknowledge"}
	want := "internal/a/b.go:7: [durability] OK written outside acknowledge"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSortDiagnostics(t *testing.T) {
	ds := []analysis.Diagnostic{
		{File: "b.go", Line: 1, Analyzer: "units"},
		{File: "a.go", Line: 9, Analyzer: "hotpath"},
		{File: "a.go", Line: 2, Analyzer: "determinism"},
	}
	analysis.SortDiagnostics(ds)
	order := fmt.Sprintf("%s:%d %s:%d %s:%d", ds[0].File, ds[0].Line, ds[1].File, ds[1].Line, ds[2].File, ds[2].Line)
	if order != "a.go:2 a.go:9 b.go:1" {
		t.Errorf("sorted order %s", order)
	}
}

// markerLines returns every line of the shipped tree's non-test Go
// files that is an //ssvc:allow marker standing alone, as
// "file:line text".
func markerLines(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for i, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line == analysis.MarkAllow || strings.HasPrefix(line, analysis.MarkAllow+" ") {
				out = append(out, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), i+1, line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestModuleIsLintClean is the self-test: the shipped tree must produce
// zero findings, which includes every //ssvc:allow marker excusing a
// finding of a rule that admits exceptions — the same check `make
// lint` enforces. The markers may not grow: new findings are fixed at
// the source, not waved through.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and invokes the compiler")
	}
	root := repoRoot(t)
	ds, err := analysis.RunAll(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		t.Errorf("lint finding on shipped tree: %s", d)
	}
	const allowBudget = 6
	if markers := markerLines(t, root); len(markers) > allowBudget {
		t.Errorf("%d %s markers, budget is %d; fix findings instead of excusing them:\n%s",
			len(markers), analysis.MarkAllow, allowBudget, strings.Join(markers, "\n"))
	}
}

// TestModulePackagesOnce: a directory whose files sort on both sides of
// a subdirectory (the root, internal/ctlplane around admit/) is one
// package, listed once, so no per-package rule checks it twice.
func TestModulePackagesOnce(t *testing.T) {
	ips, err := newLoader(t).ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ip := range ips {
		seen[ip]++
	}
	for _, ip := range []string{"swizzleqos", "swizzleqos/internal/ctlplane", "swizzleqos/internal/ctlplane/admit"} {
		if seen[ip] != 1 {
			t.Errorf("%s listed %d times", ip, seen[ip])
		}
	}
	if len(seen) != len(ips) {
		t.Errorf("%d packages listed as %d", len(seen), len(ips))
	}
}
