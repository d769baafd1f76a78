package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// recycle enforces free-list discipline as a hand-off rule: the value a
// pool source (RecycleSources: fabric.TxPool.Get) returns must be handed
// off where it is taken — stored to a field, slot or package variable,
// passed as a call argument, returned, sent, or placed in a composite
// literal. Binding it to a local or discarding it is flagged. Every
// take in the engines is such a store straight into an output slot, and
// a value held only by a local is one path away from leaking the struct,
// which silently re-introduces steady-state allocation the moment the
// pool drains (the regression TestSteadyStateAllocs pins).
func recycle(p *pass, pkg *Package) {
	for _, fd := range funcDecls(pkg) {
		var stack []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			if call, ok := n.(*ast.CallExpr); ok {
				if rule, ok := sourceRule(pkg.Info, call); ok {
					checkHandOff(p, pkg, call, stack, rule)
				}
			}
			return true
		})
	}
}

// sourceRule matches a call expression against RecycleSources by
// receiver type name and method name.
func sourceRule(info *types.Info, call *ast.CallExpr) (MethodRule, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return MethodRule{}, false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return MethodRule{}, false
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return MethodRule{}, false
	}
	for _, r := range RecycleSources {
		if named.Obj().Name() == r.TypeName && sel.Sel.Name == r.Method {
			return r, true
		}
	}
	return MethodRule{}, false
}

// checkHandOff classifies the syntactic context of one source call.
// stack is the ancestor chain ending at the call itself.
func checkHandOff(p *pass, pkg *Package, call *ast.CallExpr, stack []ast.Node, rule MethodRule) {
	var parent ast.Node
	for i := len(stack) - 2; i >= 0 && parent == nil; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); !ok {
			parent = stack[i]
		}
	}
	is := func(e ast.Expr) bool { return unparen(e) == call }
	switch par := parent.(type) {
	case *ast.ReturnStmt, *ast.CompositeLit:
		return
	case *ast.CallExpr:
		if slices.ContainsFunc(par.Args, is) {
			return
		}
	case *ast.KeyValueExpr:
		if is(par.Value) {
			return
		}
	case *ast.SendStmt:
		if is(par.Value) {
			return
		}
	case *ast.ExprStmt:
		p.report(call.Pos(), "result of %s is discarded; the struct never returns to the free list", rule)
		return
	case *ast.AssignStmt:
		if i := slices.IndexFunc(par.Rhs, is); i >= 0 && len(par.Lhs) == len(par.Rhs) {
			id, ok := par.Lhs[i].(*ast.Ident)
			if !ok {
				return // a store into a field, slot or pointee
			}
			if id.Name == "_" {
				p.report(call.Pos(), "result of %s is assigned to _; the struct never returns to the free list", rule)
				return
			}
			if v, ok := pkg.Info.ObjectOf(id).(*types.Var); ok && v.Parent() == pkg.Types.Scope() {
				return // a package variable keeps it reachable
			}
		}
	}
	p.report(call.Pos(), "result of %s is not handed off where it is taken; store it to a field, slot or package variable, or pass, return or send it", rule)
}

func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
