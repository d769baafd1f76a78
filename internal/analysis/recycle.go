package analysis

import (
	"go/ast"
	"go/types"
)

// recycle flags free-list discipline violations: a value obtained from
// a pool source (RecycleSources: fabric.TxPool.Get) must, on every path of
// the obtaining function, reach a sink that keeps it alive for eventual
// recycling — being passed to a call (Put, Deliver, Drop), stored into
// a field/slice/map, sent on a channel, or returned. A path that exits
// the function with the value still held only by a dead local leaks the
// struct, which silently re-introduces steady-state allocation the
// moment the pool drains (the regression the *CycleRecycled benchmarks
// pin at 0 allocs/op).
//
// The analysis is per-function and block-structured: it does not chase
// aliases across assignments (an alias hand-off counts as consumption)
// and treats loop bodies as possibly skipped. That is deliberate — the
// engines' grant paths consume transmissions in straight-line code, so
// anything this conservative pass flags is worth restructuring.
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
					checkSourceCall(p, pkg, call, stack, rule)
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

// checkSourceCall classifies the syntactic context of one source call.
// stack is the ancestor chain ending at the call itself.
func checkSourceCall(p *pass, pkg *Package, call *ast.CallExpr, stack []ast.Node, rule MethodRule) {
	// Walk outward past parens to the consuming context.
	var parent ast.Node
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		parent = stack[i]
		break
	}
	switch par := parent.(type) {
	case *ast.ExprStmt:
		p.report(call.Pos(), "result of %s is discarded; the struct never returns to the free list", rule)
	case *ast.AssignStmt:
		if len(par.Lhs) != 1 {
			return // multi-assign: out of scope, assume consumed
		}
		// Anything but a plain identifier is a store straight into a
		// field/index/deref: consumed.
		lhs, ok := par.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		if lhs.Name == "_" {
			p.report(call.Pos(), "result of %s is assigned to _; the struct never returns to the free list", rule)
			return
		}
		obj := pkg.Info.Defs[lhs]
		if obj == nil {
			obj = pkg.Info.Uses[lhs]
		}
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok && v.Parent() == pkg.Types.Scope() {
			return // stored in a package-level variable: stays reachable
		}
		if !consumedAfter(pkg, par, obj, stack) {
			p.report(call.Pos(), "value from %s held in '%s' does not reach a recycle sink (call/store/return) on every path out of the function", rule, lhs.Name)
		}
	}
	// Directly nested in a call, return, send, composite literal, …: the
	// value is handed off at the source site.
}

// consumedAfter runs the all-paths consumption check over the
// statements following the tracked assignment in its enclosing block.
func consumedAfter(pkg *Package, assign *ast.AssignStmt, obj types.Object, stack []ast.Node) bool {
	// Locate the statement list holding the assignment.
	var list []ast.Stmt
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] != ast.Node(assign) {
			continue
		}
		if i == 0 {
			return true
		}
		switch holder := stack[i-1].(type) {
		case *ast.BlockStmt:
			list = holder.List
		case *ast.CaseClause:
			list = holder.Body
		case *ast.CommClause:
			list = holder.Body
		default:
			// Assignment in a header position (if/for init): too unusual
			// to model, assume consumed.
			return true
		}
		idx := -1
		for j, s := range list {
			if s == ast.Stmt(assign) {
				idx = j
				break
			}
		}
		if idx < 0 {
			return true
		}
		return checkSeq(pkg.Info, list[idx+1:], obj) == stConsumed
	}
	return true
}

type consumeStatus int

const (
	stFellThrough consumeStatus = iota // reached the end without consuming or exiting
	stConsumed                         // consumed on every path reaching past this point
	stLeaked                           // some path exits the function without consuming
)

// checkSeq folds checkStmt over a statement sequence.
func checkSeq(info *types.Info, stmts []ast.Stmt, obj types.Object) consumeStatus {
	for _, s := range stmts {
		switch checkStmt(info, s, obj) {
		case stConsumed:
			return stConsumed
		case stLeaked:
			return stLeaked
		}
	}
	return stFellThrough
}

// checkStmt evaluates one statement for consumption of obj.
func checkStmt(info *types.Info, s ast.Stmt, obj types.Object) consumeStatus {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if identValueUse(info, r, obj) || exprConsumes(info, r, obj) {
				return stConsumed
			}
		}
		return stLeaked
	case *ast.BlockStmt:
		return checkSeq(info, s.List, obj)
	case *ast.LabeledStmt:
		return checkStmt(info, s.Stmt, obj)
	case *ast.IfStmt:
		if s.Init != nil && stmtConsumes(info, s.Init, obj) {
			return stConsumed
		}
		if exprConsumes(info, s.Cond, obj) {
			return stConsumed
		}
		then := checkSeq(info, s.Body.List, obj)
		els := stFellThrough
		if s.Else != nil {
			els = checkStmt(info, s.Else, obj)
		}
		switch {
		case then == stLeaked || els == stLeaked:
			return stLeaked
		case then == stConsumed && els == stConsumed:
			return stConsumed
		default:
			return stFellThrough
		}
	case *ast.ForStmt:
		// The body may run zero times, so it can leak but not guarantee
		// consumption.
		if checkSeq(info, s.Body.List, obj) == stLeaked {
			return stLeaked
		}
		return stFellThrough
	case *ast.RangeStmt:
		if exprConsumes(info, s.X, obj) {
			return stConsumed
		}
		if checkSeq(info, s.Body.List, obj) == stLeaked {
			return stLeaked
		}
		return stFellThrough
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return checkCases(info, s, obj)
	default:
		if stmtConsumes(info, s, obj) {
			return stConsumed
		}
		return stFellThrough
	}
}

// checkCases handles switch/select: consumption is guaranteed only if
// every clause consumes and (for switches) a default clause exists.
func checkCases(info *types.Info, s ast.Stmt, obj types.Object) consumeStatus {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Tag != nil && exprConsumes(info, s.Tag, obj) {
			return stConsumed
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	all := true
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			stmts = c.Body
		}
		switch checkSeq(info, stmts, obj) {
		case stLeaked:
			return stLeaked
		case stFellThrough:
			all = false
		}
	}
	if all && hasDefault && len(body.List) > 0 {
		return stConsumed
	}
	return stFellThrough
}

// stmtConsumes reports whether a simple statement consumes obj.
func stmtConsumes(info *types.Info, s ast.Stmt, obj types.Object) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			if identValueUse(info, r, obj) || exprConsumes(info, r, obj) {
				return true
			}
		}
		for _, lh := range s.Lhs {
			if exprConsumes(info, lh, obj) {
				return true
			}
		}
	case *ast.ExprStmt:
		return exprConsumes(info, s.X, obj)
	case *ast.SendStmt:
		return identValueUse(info, s.Value, obj) || exprConsumes(info, s.Value, obj) || exprConsumes(info, s.Chan, obj)
	case *ast.DeferStmt:
		return exprConsumes(info, s.Call, obj)
	case *ast.GoStmt:
		return exprConsumes(info, s.Call, obj)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						if identValueUse(info, v, obj) || exprConsumes(info, v, obj) {
							return true
						}
					}
				}
			}
		}
	case *ast.IncDecStmt:
		return false
	}
	return false
}

// exprConsumes reports whether the expression hands obj off: as a call
// argument, a method receiver, or a composite-literal element. Plain
// reads (comparisons, field loads) do not consume.
func exprConsumes(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, a := range n.Args {
				if identValueUse(info, a, obj) {
					found = true
					return false
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && identValueUse(info, sel.X, obj) {
				found = true
				return false
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if identValueUse(info, el, obj) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// identValueUse reports whether e is obj itself (possibly parenthesized
// or address-taken) used as a value.
func identValueUse(info *types.Info, e ast.Expr, obj types.Object) bool {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.UnaryExpr:
			e = t.X
		case *ast.Ident:
			return info.Uses[t] == obj
		default:
			return false
		}
	}
}
