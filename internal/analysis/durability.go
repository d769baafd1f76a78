package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// durability holds what the control plane's crash-safety contract
// (DESIGN.md "Invariants" rule 8) leaves to the source. The ordering
// itself — an accepted command is journaled and fsynced before it is
// acknowledged, and no snapshot shares an unsynced window with a command
// — is held at run time by ctlplane's Journal and its single
// acknowledgement site, Plane.acknowledge, which reads the journal's
// state. Two checks keep that site single and the lease heap owned:
//
//  1. One writer of acknowledgements. Outside a function named
//     acknowledge, a Result literal whose OK is not the constant false,
//     a store of anything but the constant false to a Result's OK, and
//     the address of a Result's OK are findings. Result and its OK field
//     are matched by name, so fixture packages can model the contract
//     without importing ctlplane.
//  2. Lease-heap ownership. Any goroutine spawn whose transitive call
//     graph (per the callgraph.go callee lists) reaches
//     leaseHeap.push/pop or an //ssvc:serial-only function is flagged:
//     those mutations belong to the plane's single owner goroutine.
func durability(p *pass, pkgs []*Package) {
	dc := &durChecker{p}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); !ok || fd.Name.Name != ackSite {
					dc.checkAckWriters(pkg, decl)
				}
			}
		}
		dc.checkGoSpawns(pkg)
	}
}

type durChecker struct{ *pass }

// ackSite names the one function that may turn a Result OK.
const ackSite = "acknowledge"

// checkAckWriters runs check 1 over one declaration.
func (dc *durChecker) checkAckWriters(pkg *Package, decl ast.Decl) {
	info := pkg.Info
	isFalse := func(e ast.Expr) bool {
		v := info.Types[e].Value
		return v != nil && v.Kind() == constant.Bool && !constant.BoolVal(v)
	}
	const msg = "Result.OK set outside %s: only the acknowledgement site, which reads the journal's durable state, may acknowledge a command"
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			var st *types.Struct
			if t := info.TypeOf(n); t != nil {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem() // an elided &Result{...} in a []*Result literal
				}
				st, _ = t.Underlying().(*types.Struct)
			}
			for i, elt := range n.Elts {
				var field types.Object
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						field, elt = info.Uses[key], kv.Value
					}
				} else if st != nil && i < st.NumFields() {
					field = st.Field(i)
				}
				if isResultOK(field) && !isFalse(elt) {
					dc.report(elt.Pos(), msg, ackSite)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := unparen(lhs).(*ast.SelectorExpr)
				if ok && isResultOK(info.Uses[sel.Sel]) && (len(n.Rhs) != len(n.Lhs) || !isFalse(n.Rhs[i])) {
					dc.report(lhs.Pos(), msg, ackSite)
				}
			}
		case *ast.UnaryExpr:
			if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND && isResultOK(info.Uses[sel.Sel]) {
				dc.report(n.Pos(), msg, ackSite)
			}
		}
		return true
	})
}

// isResultOK reports whether obj is the OK field of a package-level
// struct type named Result.
func isResultOK(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || v.Name() != "OK" || v.Pkg() == nil {
		return false
	}
	tn, _ := v.Pkg().Scope().Lookup("Result").(*types.TypeName)
	if tn == nil {
		return false
	}
	st, _ := tn.Type().Underlying().(*types.Struct)
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if st.Field(i) == v {
			return true
		}
	}
	return false
}

// checkGoSpawns runs check 2: no spawned goroutine may transitively
// reach the lease heap or an //ssvc:serial-only function.
func (dc *durChecker) checkGoSpawns(pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var start []*types.Func
			if lit, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				start = dc.cg.callsIn(pkg, lit.Body)
			} else {
				start = dc.cg.callees(pkg, gs.Call)
			}
			seen := map[*types.Func]bool{}
			var visit func(fn *types.Func)
			visit = func(fn *types.Func) {
				if seen[fn] {
					return
				}
				seen[fn] = true
				if bad := dc.singleOwnerViolation(fn); bad != "" {
					dc.report(gs.Pos(), "goroutine transitively calls %s; lease-heap and serial-only state belong to the plane's single owner goroutine", bad)
					return
				}
				for _, callee := range dc.cg.calls[fn] {
					visit(callee)
				}
			}
			for _, fn := range start {
				visit(fn)
			}
			return true
		})
	}
}

// singleOwnerViolation names the violated contract for a callee the
// spawned goroutine reaches, or "".
func (dc *durChecker) singleOwnerViolation(fn *types.Func) string {
	if dc.cg.serialOnly[fn] {
		return fn.Name() + " (//ssvc:serial-only)"
	}
	if fn.Name() != "push" && fn.Name() != "pop" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Name() == "leaseHeap" {
		return "leaseHeap." + fn.Name()
	}
	return ""
}
