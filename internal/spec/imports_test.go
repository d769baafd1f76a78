package spec

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testOnly are the packages only tests may import: this reference model,
// and the allocation helper behind the TestSteadyStateAllocs tests.
var testOnly = []string{"swizzleqos/internal/spec", "swizzleqos/internal/heaptest"}

// specImports is what the model may import besides the standard library:
// an engine package among its imports would let it share code with what
// it checks.
var specImports = []string{
	"swizzleqos/internal/arb",
	"swizzleqos/internal/faults",
	"swizzleqos/internal/noc",
	"swizzleqos/internal/traffic",
}

// TestTestOnlyPackages parses the imports of every non-test Go file in the
// module: none may import a test-only package, and this package imports
// nothing of the module beyond specImports.
func TestTestOnlyPackages(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		inSpec := filepath.ToSlash(filepath.Dir(rel)) == "internal/spec"
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if slices.Contains(testOnly, p) {
				t.Errorf("%s imports %s, which only tests may import", rel, p)
			}
			if inSpec && strings.HasPrefix(p, "swizzleqos/") && !slices.Contains(specImports, p) {
				t.Errorf("%s imports %s: the reference model may import only %v", rel, p, specImports)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("parsed only %d files under %s: not the module root?", files, root)
	}
}
