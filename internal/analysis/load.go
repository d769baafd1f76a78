package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one loaded module package: parsed syntax plus (when loaded
// with types) the type-checked package and resolution info.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks packages of the module rooted at Root.
// It resolves intra-module imports from source and standard-library
// imports through the stdlib source importer, so it works with zero
// third-party dependencies and no network. Not safe for concurrent use.
type Loader struct {
	Root   string // module root directory (contains go.mod)
	Module string // module path from go.mod

	Fset   *token.FileSet
	std    types.Importer
	typed  map[string]*Package // typechecked, by import path
	parsed map[string]*Package // syntax only, by import path
}

// NewLoader returns a loader for the module rooted at root, reading the
// module path from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: module,
		Fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		typed:  map[string]*Package{},
		parsed: map[string]*Package{},
	}, nil
}

// Rel returns the module-root-relative slash path of a position's file.
func (l *Loader) Rel(pos token.Pos) (string, int) {
	p := l.Fset.Position(pos)
	rel, err := filepath.Rel(l.Root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return filepath.ToSlash(rel), p.Line
}

// dirFor maps an intra-module import path to its directory.
func (l *Loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.Module), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// Parse returns the package's syntax trees without type-checking it
// (sufficient for the comment-driven hotpath analyzer). Test files are
// skipped: the analyzers guard shipped simulator code.
func (l *Loader) Parse(importPath string) (*Package, error) {
	if p, ok := l.typed[importPath]; ok {
		return p, nil
	}
	if p, ok := l.parsed[importPath]; ok {
		return p, nil
	}
	p, err := l.parseDir(importPath)
	if err != nil {
		return nil, err
	}
	l.parsed[importPath] = p
	return p, nil
}

func (l *Loader) parseDir(importPath string) (*Package, error) {
	dir := l.dirFor(importPath)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", importPath, err)
	}
	p := &Package{ImportPath: importPath, Dir: dir}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		// The files the compiler would build here: a _GOARCH suffix or a
		// //go:build line for another target leaves a file out, as it
		// does for the standard library the source importer reads.
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		p.Files = append(p.Files, f)
	}
	if len(p.Files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return p, nil
}

// Load parses and type-checks an intra-module package (and,
// transitively, everything it imports). Results are cached.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.typed[importPath]; ok {
		return p, nil
	}
	p, err := l.parseDir(importPath)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(importPath, l.Fset, p.Files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	p.Types, p.Info = tpkg, info
	l.typed[importPath] = p
	delete(l.parsed, importPath)
	return p, nil
}

// importPath maps a module-relative package path ("" or "." for the
// root package) to its import path.
func (l *Loader) importPath(rel string) string {
	if rel == "" || rel == "." {
		return l.Module
	}
	return l.Module + "/" + rel
}

// loadAll type-checks the module-relative packages in order. A name
// that is not a package of the module is an error.
func (l *Loader) loadAll(rels []string) ([]*Package, error) {
	pkgs := make([]*Package, 0, len(rels))
	for _, rel := range rels {
		pkg, err := l.Load(l.importPath(rel))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// importPkg resolves one import during type-checking: module packages
// recurse through Load, everything else goes to the stdlib source
// importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ModulePackages walks the module and returns the import paths of every
// package directory, skipping testdata (lint fixtures), hidden
// directories, and vendor trees.
func (l *Loader) ModulePackages() ([]string, error) {
	var pkgs []string
	err := filepath.WalkDir(l.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return err
		}
		ip := l.Module
		if rel != "." {
			ip = l.Module + "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The walk visits a directory's files on both sides of its
	// subdirectories, so one package may be listed more than once.
	slices.Sort(pkgs)
	return slices.Compact(pkgs), nil
}
