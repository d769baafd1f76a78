package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"sync"
)

// This file is the interprocedural layer under the durability
// analyzer: a whole-module function index with, per function,
// the list of functions its body (closures included) may call. A call
// resolves statically to a named function or concrete method, and a call
// through an interface resolves by class-hierarchy analysis to every
// concrete method in the loaded packages whose receiver type implements
// the interface. Calls that cannot be resolved (func values stored in
// struct fields, e.g. engine hooks bound at construction) are
// deliberately trusted — the engines register those closures before any
// cycle runs — and so are calls into packages outside the module (the
// standard library), which have no body in the index.

// MarkSerialOnly annotates a function that must only run on the
// plane's single owner goroutine; a spawned goroutine that reaches it
// is flagged (durability, DESIGN.md "Invariants" rule 8).
const MarkSerialOnly = "//ssvc:serial-only"

// funcInfo ties a type-checked function object back to its syntax.
type funcInfo struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// callGraph is the shared index the interprocedural analyzers run on.
type callGraph struct {
	pkgs       []*Package // sorted by import path, for determinism
	funcs      map[*types.Func]*funcInfo
	calls      map[*types.Func][]*types.Func // callee list per function
	serialOnly map[*types.Func]bool
	chaMu      sync.Mutex
	chaCache   map[string][]*types.Func
}

// buildCallGraph indexes every package the loader has type-checked so
// far (the analyzer's target packages plus, transitively, everything
// they import within the module).
func buildCallGraph(l *Loader) *callGraph {
	cg := &callGraph{
		funcs:      map[*types.Func]*funcInfo{},
		calls:      map[*types.Func][]*types.Func{},
		serialOnly: map[*types.Func]bool{},
		chaCache:   map[string][]*types.Func{},
	}
	paths := make([]string, 0, len(l.typed))
	for ip := range l.typed {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		cg.pkgs = append(cg.pkgs, l.typed[ip])
	}
	for _, pkg := range cg.pkgs {
		cg.indexPackage(pkg)
	}
	for fn, fi := range cg.funcs {
		if fi.decl.Body != nil {
			cg.calls[fn] = cg.callsIn(fi.pkg, fi.decl.Body)
		}
	}
	return cg
}

// indexPackage collects function declarations and serial-only function
// markers from one package.
func (cg *callGraph) indexPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			cg.funcs[fn] = &funcInfo{decl: fd, pkg: pkg}
			if hasMarker(fd.Doc, MarkSerialOnly) {
				cg.serialOnly[fn] = true
			}
		}
	}
}

// callsIn lists the callees of every call in body, nested function
// literals included: a closure's calls belong to the function that
// builds it, which is where it runs.
func (cg *callGraph) callsIn(pkg *Package, body ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			out = append(out, cg.callees(pkg, call)...)
		}
		return true
	})
	return out
}

// callees resolves one call: a named function, a package-qualified
// function or a concrete method to itself, an interface method call to
// its implementers. Builtins, conversions, func values and literals
// resolve to nothing.
func (cg *callGraph) callees(pkg *Package, call *ast.CallExpr) []*types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return cg.implementers(sel.Recv(), fun.Sel.Name)
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return []*types.Func{fn}
			}
			return nil
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// implementers resolves an interface method call to every concrete
// method in the loaded packages whose receiver implements the
// interface (class-hierarchy analysis). Unimplemented-here interfaces
// (stdlib ones like error) resolve to nothing and are trusted.
func (cg *callGraph) implementers(recv types.Type, method string) []*types.Func {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := recv.String() + "." + method
	cg.chaMu.Lock()
	fns, ok := cg.chaCache[key]
	cg.chaMu.Unlock()
	if ok {
		return fns
	}
	fns = nil
	for _, pkg := range cg.pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			var impl types.Type
			if types.Implements(named, iface) {
				impl = named
			} else if p := types.NewPointer(named); types.Implements(p, iface) {
				impl = p
			} else {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, pkg.Types, method)
			if fn, ok := obj.(*types.Func); ok {
				fns = append(fns, fn)
			}
		}
	}
	cg.chaMu.Lock()
	cg.chaCache[key] = fns
	cg.chaMu.Unlock()
	return fns
}
