package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

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
