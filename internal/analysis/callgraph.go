package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// This file is the interprocedural layer under the durability, valuerange
// and taint analyzers: a whole-module function index with per-function
// effect summaries (which parameters' reachable memory a function may
// write, and the calls it makes), plus class-hierarchy resolution for
// calls through interfaces (every concrete method in the loaded packages
// whose receiver type implements the interface).
//
// Summaries are computed in two phases. The local phase walks one
// function body resolving each written lvalue to a root — receiver,
// parameter, fresh local allocation, or package-level variable — through
// a per-function alias environment (`x := expr` inherits the root of
// expr's base identifier; allocations are fresh; call results are
// unknown and treated as fresh). The propagation phase closes the local
// facts over the call graph: callee effects flow to callers through the
// recorded argument-root mapping until a fixpoint. Calls that cannot be
// resolved (func values stored in struct fields, e.g. engine hooks bound
// at construction) are deliberately trusted — the engines register those
// closures before any cycle runs — and calls into packages outside the
// module (the standard library) are trusted as well.

// Annotation markers recognized on functions. DESIGN.md "Invariants"
// rules 8-10 document the semantics.
const (
	// MarkSerialOnly annotates a function that must only run on the
	// plane's single owner goroutine; a spawned goroutine that reaches it
	// is flagged (durability).
	MarkSerialOnly = "//ssvc:serial-only"
	// MarkSink annotates a function whose arguments feed the exact
	// fixed-point arithmetic (cost products, schedulability bounds,
	// vtick counters); the taint analyzer requires every value reaching
	// a sink argument to have crossed a barrier first. DESIGN.md
	// invariant 10 documents the rule.
	MarkSink = "//ssvc:sink"
	// MarkBarrier annotates a validation function: calling it launders
	// the taint off its receiver and arguments (the callee rejects
	// out-of-range, NaN, or Inf input before it can reach a sink), and
	// its results are trusted. valuerange likewise exempts float-to-
	// integer conversions inside barrier bodies, since clamping is
	// exactly what barriers are for.
	MarkBarrier = "//ssvc:barrier"
)

// funcInfo ties a type-checked function object back to its syntax.
type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// callRecord is one resolved call site inside a function: the candidate
// callees (one for a static call, every implementing method for an
// interface call) and, per callee parameter slot (receiver first), the
// caller root the argument aliases (-1 unknown/fresh, -2 package-level).
type callRecord struct {
	callees []*types.Func
	args    []int
}

// effectSummary is a function's interprocedurally-closed effect set:
// which parameter slots (receiver first) it may write through, and its
// calls.
type effectSummary struct {
	writesParam []bool
	calls       []callRecord
}

// callGraph is the shared index the interprocedural analyzers run on.
type callGraph struct {
	l          *Loader
	pkgs       []*Package // sorted by import path, for determinism
	funcs      map[*types.Func]*funcInfo
	summaries  map[*types.Func]*effectSummary
	serialOnly map[*types.Func]bool
	chaMu      sync.Mutex
	chaCache   map[string][]*types.Func
}

// buildCallGraph indexes every package the loader has type-checked so
// far (the analyzer's target packages plus, transitively, everything
// they import within the module) and computes the effect fixpoint.
func buildCallGraph(l *Loader) *callGraph {
	cg := &callGraph{
		l:          l,
		funcs:      map[*types.Func]*funcInfo{},
		summaries:  map[*types.Func]*effectSummary{},
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
	for _, pkg := range cg.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				cg.summaries[fn] = cg.localSummary(&funcInfo{fn: fn, decl: fd, pkg: pkg})
			}
		}
	}
	cg.propagate()
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
			cg.funcs[fn] = &funcInfo{fn: fn, decl: fd, pkg: pkg}
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if isMarker(c.Text, MarkSerialOnly) {
						cg.serialOnly[fn] = true
					}
				}
			}
		}
	}
}

// Root slot markers used in the alias environment beside parameter
// indices >= 0.
const (
	rootFresh  = -1 // locally allocated or unknown: writes stay local
	rootGlobal = -2 // aliases package-level state
)

// summaryBuilder walks one function body accumulating its local summary.
type summaryBuilder struct {
	cg   *callGraph
	sum  *effectSummary
	env  map[types.Object]int
	info *types.Info
}

// localSummary computes a function's direct effects plus its call
// records for the propagation phase.
func (cg *callGraph) localSummary(fi *funcInfo) *effectSummary {
	sum := &effectSummary{}
	b := &summaryBuilder{cg: cg, sum: sum, env: map[types.Object]int{}, info: fi.pkg.Info}
	slot := 0
	register := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				slot++ // unnamed receiver/parameter still occupies a slot
				continue
			}
			for _, name := range f.Names {
				if obj := fi.pkg.Info.Defs[name]; obj != nil {
					b.env[obj] = slot
				}
				slot++
			}
		}
	}
	register(fi.decl.Recv)
	register(fi.decl.Type.Params)
	sum.writesParam = make([]bool, slot)
	b.walkBody(fi.decl.Body)
	return sum
}

// litSummary computes the summary of a free-standing function literal
// (e.g. the body of a go statement). Callee summaries are already closed
// when this is called, so a single merge pass is exact.
func (cg *callGraph) litSummary(lit *ast.FuncLit, pkg *Package) *effectSummary {
	sum := &effectSummary{}
	b := &summaryBuilder{cg: cg, sum: sum, env: map[types.Object]int{}, info: pkg.Info}
	b.registerFresh(lit.Type.Params)
	b.walkBody(lit.Body)
	cg.mergeCalls(sum)
	return sum
}

func (b *summaryBuilder) registerFresh(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, name := range f.Names {
			if obj := b.info.Defs[name]; obj != nil {
				b.env[obj] = rootFresh
			}
		}
	}
}

// walkBody visits statements in source order (closures included: a
// nested literal's effects belong to the enclosing function, which is
// where the closures it builds run).
func (b *summaryBuilder) walkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			b.registerFresh(n.Type.Params)
			return true
		case *ast.AssignStmt:
			b.assign(n)
		case *ast.IncDecStmt:
			if _, ok := n.X.(*ast.Ident); !ok {
				b.recordWrite(n.X)
			}
		case *ast.RangeStmt:
			root := b.rootSlot(n.X)
			if id, ok := n.Key.(*ast.Ident); ok && id.Name != "_" {
				if obj := b.info.Defs[id]; obj != nil {
					b.env[obj] = rootFresh
				}
			}
			if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
				if obj := b.info.Defs[id]; obj != nil {
					b.env[obj] = root
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						root := rootFresh
						if len(vs.Values) == len(vs.Names) {
							root = b.rootSlot(vs.Values[i])
						}
						if obj := b.info.Defs[name]; obj != nil {
							b.env[obj] = root
						}
					}
				}
			}
		case *ast.GoStmt:
			b.call(n.Call)
		case *ast.DeferStmt:
			b.call(n.Call)
		case *ast.CallExpr:
			b.call(n)
		case *ast.SendStmt:
			// Sending on a channel publishes the value; treat the channel
			// as written state.
			b.recordWrite(n.Chan)
		}
		return true
	})
}

// assign updates the alias environment for identifier targets and
// records memory writes for everything else.
func (b *summaryBuilder) assign(s *ast.AssignStmt) {
	aligned := len(s.Lhs) == len(s.Rhs)
	for i, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			// A bare identifier is a rebind, not a memory write: value
			// parameters and locals are caller-invisible. Track what the
			// name now aliases.
			obj := b.info.Defs[id]
			if obj == nil {
				obj = b.info.Uses[id]
			}
			if obj == nil {
				continue
			}
			root := rootFresh
			if aligned {
				root = b.rootSlot(s.Rhs[i])
			}
			if cur, ok := b.env[obj]; ok && s.Tok != token.DEFINE && cur != root {
				// Reassigning an existing alias to a different root: the
				// name may address either; be conservative and keep the
				// more caller-visible of the two.
				if cur == rootGlobal || root == rootGlobal {
					root = rootGlobal
				} else if cur >= 0 {
					root = cur
				}
			}
			b.env[obj] = root
			continue
		}
		b.recordWrite(lhs)
	}
}

// recordWrite resolves one written lvalue to its root and marks the
// parameter slot it writes through, if any.
func (b *summaryBuilder) recordWrite(lv ast.Expr) {
	if root := b.rootSlot(lv); root >= 0 && root < len(b.sum.writesParam) {
		b.sum.writesParam[root] = true
	}
}

// call records one call site's callees and argument roots.
func (b *summaryBuilder) call(call *ast.CallExpr) {
	fun := unparen(call.Fun)
	// Builtins with write semantics.
	if id, ok := fun.(*ast.Ident); ok {
		if obj, ok := b.info.Uses[id].(*types.Builtin); ok {
			switch obj.Name() {
			case "copy", "delete":
				if len(call.Args) > 0 {
					b.recordWrite(call.Args[0])
				}
			}
			return
		}
	}
	if b.isConversion(call) {
		return
	}
	var callees []*types.Func
	var recvExpr ast.Expr
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := b.info.Uses[fun].(type) {
		case *types.Func:
			callees = []*types.Func{obj}
		default:
			// A func value: a local literal's effects were already merged
			// where it was defined; anything else is trusted by design.
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := b.info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recvExpr = fun.X
			if types.IsInterface(sel.Recv()) {
				callees = b.cg.implementers(sel.Recv(), fun.Sel.Name)
			} else if fn, ok := sel.Obj().(*types.Func); ok {
				callees = []*types.Func{fn}
			}
		} else if fn, ok := b.info.Uses[fun.Sel].(*types.Func); ok {
			callees = []*types.Func{fn} // qualified pkg.Func
		} else {
			return // a stored hook: trusted (bound at construction)
		}
	case *ast.FuncLit:
		return // effects already merged at the definition site
	default:
		return
	}
	if len(callees) == 0 {
		return
	}
	cr := callRecord{callees: callees}
	if recvExpr != nil {
		cr.args = append(cr.args, b.rootSlot(recvExpr))
	}
	for _, a := range call.Args {
		cr.args = append(cr.args, b.rootSlot(a))
	}
	b.sum.calls = append(b.sum.calls, cr)
}

// isConversion reports whether a CallExpr is a type conversion.
func (b *summaryBuilder) isConversion(call *ast.CallExpr) bool {
	tv, ok := b.info.Types[call.Fun]
	return ok && tv.IsType()
}

// rootSlot resolves an expression's base identifier to its alias root.
func (b *summaryBuilder) rootSlot(e ast.Expr) int {
	obj := b.rootObj(e)
	if obj == nil {
		return rootFresh
	}
	if slot, ok := b.env[obj]; ok {
		return slot
	}
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return rootGlobal
	}
	return rootFresh
}

// rootObj unwraps an expression to its base identifier's object, or nil
// when the base is not an identifier (allocation, call result, literal).
func (b *summaryBuilder) rootObj(e ast.Expr) types.Object {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SelectorExpr:
			// A qualified package selector (pkg.Var) resolves directly.
			if id, ok := t.X.(*ast.Ident); ok {
				if _, ok := b.info.Uses[id].(*types.PkgName); ok {
					return b.info.Uses[t.Sel]
				}
			}
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.UnaryExpr:
			e = t.X
		case *ast.TypeAssertExpr:
			e = t.X
		case *ast.Ident:
			if obj := b.info.Uses[t]; obj != nil {
				return obj
			}
			return b.info.Defs[t]
		default:
			return nil
		}
	}
}

// fieldVarOf resolves a selector to the struct field it denotes, or nil
// for methods and package-qualified names.
func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if fv, ok := s.Obj().(*types.Var); ok {
			return fv
		}
	}
	return nil
}

// indirectType reports whether the type is an indirection boundary:
// mutating memory behind it does not dirty the value itself.
func indirectType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	}
	return false
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

// mergeCalls folds the (already-closed) callee summaries of one
// function's call records into it once. Used for literals computed
// after the global fixpoint.
func (cg *callGraph) mergeCalls(sum *effectSummary) {
	for _, cr := range sum.calls {
		for _, callee := range cr.callees {
			cs := cg.summaries[callee]
			if cs == nil {
				continue
			}
			mergeSummary(sum, cs, cr)
		}
	}
}

// mergeSummary folds one callee's effects into the caller through a
// call record; reports whether anything changed.
func mergeSummary(sum *effectSummary, cs *effectSummary, cr callRecord) bool {
	changed := false
	for j, root := range cr.args {
		if j >= len(cs.writesParam) {
			break
		}
		if cs.writesParam[j] && root >= 0 && root < len(sum.writesParam) && !sum.writesParam[root] {
			sum.writesParam[root] = true
			changed = true
		}
	}
	return changed
}

// propagate closes all summaries over the call graph. Effects only ever
// grow and the fact space is finite, so iteration terminates.
func (cg *callGraph) propagate() {
	fns := make([]*types.Func, 0, len(cg.summaries))
	for fn := range cg.summaries {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			sum := cg.summaries[fn]
			for _, cr := range sum.calls {
				for _, callee := range cr.callees {
					cs := cg.summaries[callee]
					if cs == nil || cs == sum {
						continue
					}
					if mergeSummary(sum, cs, cr) {
						changed = true
					}
				}
			}
		}
	}
}
