package swizzleqos_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakeFuzzListsEveryTarget holds `make fuzz` to the tree: every
// func Fuzz* in a _test.go file has a line in the Makefile's fuzz target
// that fuzzes it in its own package, and every line there names one.
func TestMakeFuzzListsEveryTarget(t *testing.T) {
	listed := map[string]string{} // target -> package directory
	f, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	line := regexp.MustCompile(`^\t\$\(GO\) test \./(\S+?)/? .*-fuzz (\w+)`)
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		switch text := sc.Text(); {
		case text == "fuzz:":
			in = true
		case in && strings.HasPrefix(text, "\t"):
			if m := line.FindStringSubmatch(text); m != nil {
				listed[m[2]] = m[1]
			}
		default:
			in = false
		}
	}
	if len(listed) == 0 {
		t.Fatal("the Makefile has no fuzz target, or its lines no longer read `$(GO) test ./<pkg>/ ... -fuzz <Name>`")
	}

	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			found[m[1]] = true
			if dir, ok := listed[m[1]]; !ok {
				t.Errorf("%s declares %s, which `make fuzz` does not run", path, m[1])
			} else if dir != filepath.ToSlash(filepath.Dir(path)) {
				t.Errorf("`make fuzz` runs %s in ./%s, but %s declares it", m[1], dir, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range listed {
		if !found[name] {
			t.Errorf("`make fuzz` runs %s, which no _test.go file declares", name)
		}
	}
}
