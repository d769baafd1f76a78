package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// HotpathMarker annotates a function whose body must be allocation-free
// in steady state; HotpathCold marks a statement (usually an error
// block) inside such a function that is allowed to allocate because the
// engine is about to freeze sick anyway.
const (
	HotpathMarker = "//ssvc:hotpath"
	HotpathCold   = "//ssvc:coldpath"
)

// HotFunc is one //ssvc:hotpath-annotated function: its file
// (module-relative), declaration line range, and any //ssvc:coldpath
// line ranges excluded from the allocation check.
type HotFunc struct {
	Name    string
	File    string
	Start   int
	End     int
	Exclude [][2]int
}

// contains reports whether line falls in the checked range.
func (h *HotFunc) contains(line int) bool {
	if line < h.Start || line > h.End {
		return false
	}
	for _, ex := range h.Exclude {
		if line >= ex[0] && line <= ex[1] {
			return false
		}
	}
	return true
}

// hotpath verifies every annotated function against the compiler's
// escape analysis: it scans the given packages for //ssvc:hotpath
// annotations, runs `go build -gcflags=<module>/...=-m` over the
// packages that carry them, and flags any heap-allocation diagnostic
// ("escapes to heap", "moved to heap") landing inside an annotated
// range. The build cache replays compiler diagnostics, so repeated runs
// stay fast.
func hotpath(l *Loader, packages []string) ([]Diagnostic, error) {
	funcs, dirs, err := HotpathFuncs(l, packages)
	if err != nil {
		return nil, err
	}
	if len(funcs) == 0 {
		return nil, nil
	}
	out, err := escapeOutput(l.Root, l.Module, dirs)
	if err != nil {
		return nil, err
	}
	return HotpathDiagnose(funcs, out), nil
}

// HotpathFuncs scans packages (parse-only, no type-checking) for
// annotated functions, returning them plus the ./-relative directories
// of the packages that contain at least one annotation.
func HotpathFuncs(l *Loader, packages []string) ([]HotFunc, []string, error) {
	var funcs []HotFunc
	var dirs []string
	for _, rel := range packages {
		pkg, err := l.Parse(l.importPath(rel))
		if err != nil {
			return nil, nil, err
		}
		found := false
		for _, file := range pkg.Files {
			for _, fn := range hotFuncsInFile(l, file) {
				funcs = append(funcs, fn)
				found = true
			}
		}
		if found {
			d := "./" + filepath.ToSlash(filepath.Join(".", rel))
			if rel == "" || rel == "." {
				d = "."
			}
			dirs = append(dirs, d)
		}
	}
	return funcs, dirs, nil
}

func hotFuncsInFile(l *Loader, file *ast.File) []HotFunc {
	var funcs []HotFunc
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil || fd.Body == nil {
			continue
		}
		if !hasMarker(fd.Doc, HotpathMarker) {
			continue
		}
		fname, start := l.Rel(fd.Pos())
		_, end := l.Rel(fd.End())
		hf := HotFunc{Name: funcName(fd), File: fname, Start: start, End: end}
		// Attach each //ssvc:coldpath comment to the smallest statement
		// whose line range covers it; that statement's lines are exempt.
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !isMarker(c.Text, HotpathCold) {
					continue
				}
				_, cline := l.Rel(c.Pos())
				if cline < start || cline > end {
					continue
				}
				hf.Exclude = append(hf.Exclude, coldRange(l, fd, cline))
			}
		}
		funcs = append(funcs, hf)
	}
	return funcs
}

func isMarker(text, marker string) bool {
	return text == marker || strings.HasPrefix(text, marker+" ")
}

// hasMarker reports whether a comment group, possibly nil, carries
// marker.
func hasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if isMarker(c.Text, marker) {
			return true
		}
	}
	return false
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// coldRange returns the line range of the smallest statement in fd
// covering the comment line; if none (free-standing comment), just the
// comment's own line.
func coldRange(l *Loader, fd *ast.FuncDecl, cline int) [2]int {
	best := [2]int{cline, cline}
	bestSpan := 1 << 30
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(ast.Stmt); !ok {
			return true
		}
		_, s := l.Rel(n.Pos())
		_, e := l.Rel(n.End())
		if s <= cline && cline <= e && e-s < bestSpan {
			best, bestSpan = [2]int{s, e}, e-s
		}
		return true
	})
	return best
}

// escapeOutput runs the compiler's escape analysis over dirs and
// returns its combined diagnostics. The Go build cache replays -m
// output for unchanged packages, so a warm run does not recompile.
func escapeOutput(root, module string, dirs []string) ([]byte, error) {
	sort.Strings(dirs)
	args := append([]string{"build", "-gcflags=" + module + "/...=-m"}, dirs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("analysis: go build -gcflags=-m failed: %v\n%s", err, out)
	}
	return out, nil
}

// HotpathDiagnose cross-checks escape-analysis output (the stderr of
// `go build -gcflags=-m`, with paths relative to the module root)
// against the annotated line ranges. Exported separately so tests can
// feed canned compiler output.
func HotpathDiagnose(funcs []HotFunc, buildOutput []byte) []Diagnostic {
	byFile := map[string][]*HotFunc{}
	for i := range funcs {
		byFile[funcs[i].File] = append(byFile[funcs[i].File], &funcs[i])
	}
	var diags []Diagnostic
	for _, raw := range bytes.Split(buildOutput, []byte("\n")) {
		line := string(raw)
		file, lineno, msg, ok := splitDiag(line)
		if !ok {
			continue
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		for _, hf := range byFile[filepath.ToSlash(file)] {
			if hf.contains(lineno) {
				diags = append(diags, Diagnostic{
					File: hf.File, Line: lineno, Analyzer: "hotpath",
					Message: fmt.Sprintf("allocation in //ssvc:hotpath function %s: %s", hf.Name, msg),
				})
			}
		}
	}
	return diags
}

// splitDiag parses a `file.go:line:col: message` compiler diagnostic.
func splitDiag(s string) (file string, line int, msg string, ok bool) {
	rest := s
	i := strings.Index(rest, ".go:")
	if i < 0 {
		return "", 0, "", false
	}
	file, rest = rest[:i+3], rest[i+4:]
	j := strings.IndexByte(rest, ':')
	if j < 0 {
		return "", 0, "", false
	}
	line, err := strconv.Atoi(rest[:j])
	if err != nil {
		return "", 0, "", false
	}
	rest = rest[j+1:]
	// Optional column.
	if k := strings.IndexByte(rest, ':'); k >= 0 {
		if _, err := strconv.Atoi(rest[:k]); err == nil {
			rest = rest[k+1:]
		}
	}
	return file, line, strings.TrimSpace(rest), true
}
