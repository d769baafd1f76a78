package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
)

// durability proves the control plane's crash-safety ordering contract
// (DESIGN.md "Reservation control plane"): an accepted command must be
// journaled and fsynced before it is acknowledged, a batch of commands
// may share one fsync but never skip it, snapshot writes must not race
// an unsynced append, and the lease heap is single-owner state.
//
// Three checks, matched by name so fixture packages can model the
// contract without importing ctlplane:
//
//  1. Ack ordering (intraprocedural must-analysis). An acknowledgement
//     is a `Result{OK: true, ...}` literal anywhere, or a store of
//     anything but `false` to a Result's OK field. At every one the
//     durable fact must hold: on every path here the last journal event
//     is a Sync whose error was proven nil, reached with every Append
//     before it proven nil too in a function that does append, or the
//     journal handle was proven nil (journal disabled). An Append
//     ends durability until the next such Sync, so an OK stored inside
//     a batch's append loop, behind a Sync whose result was dropped, or
//     in a function that never journals is flagged. The Appends and the
//     Sync must sit in the acknowledging function itself: a wrapper
//     proves nothing here, which fails closed.
//  2. Unsynced-append windows (intraprocedural may-analysis). A
//     successful Journal.Append opens a window that only a Sync whose
//     error is tested (or returned), or a nil journal handle, closes.
//     Inside it a return is flagged, and so is a second Append — unless
//     both are command records (`&Record{Kind: KindCmd, ...}` literals),
//     the run a batch makes: a snapshot record must not race an unsynced
//     command record, nor a command an unsynced snapshot. Failure
//     branches of the Append or the Sync are exempt because the plane
//     freezes there, and check 1 bars every acknowledgement on them.
//  3. Lease-heap ownership. Any goroutine spawn whose transitive call
//     graph (per the callgraph.go callee lists) reaches
//     leaseHeap.push/pop or an //ssvc:serial-only function is flagged:
//     those mutations belong to the plane's single owner goroutine.
func durability(p *pass, pkgs []*Package) {
	dc := &durChecker{p}
	for _, pkg := range pkgs {
		for _, fd := range funcDecls(pkg) {
			dc.checkAckOrdering(pkg, fd)
			dc.checkUnsynced(pkg, fd)
		}
		dc.checkGoSpawns(pkg)
	}
}

type durChecker struct{ *pass }

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

func declFunc(pkg *Package, fd *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return fn
}

// durFacts is the state of check 1 at one program point. Idents are
// tracked by name; the sets record which locals hold an unproven Append
// or Sync error. durable and proven are must-facts (met across paths
// with AND); lost is a may-fact (OR) that only ever withdraws proven.
type durFacts struct {
	durable    bool // the last journal event is a proven Sync, or the journal is off
	proven     bool // no Append on this path is still waiting for its nil proof
	lost       bool // some Append's error can no longer be proven nil
	appendErrs map[string]bool
	syncErrs   map[string]bool

	// appends is the same at every point of one function: it calls
	// Journal.Append somewhere. A proven Sync makes nothing durable in a
	// function that never appends: an acknowledgement there journals no
	// record of its own.
	appends bool
}

func newDurFacts(appends bool) *durFacts {
	return &durFacts{proven: true, appends: appends, appendErrs: map[string]bool{}, syncErrs: map[string]bool{}}
}

func (f *durFacts) clone() *durFacts {
	out := *f
	out.appendErrs, out.syncErrs = maps.Clone(f.appendErrs), maps.Clone(f.syncErrs)
	return &out
}

func meetDur(a, b *durFacts) *durFacts {
	out := newDurFacts(a.appends)
	out.durable = a.durable && b.durable
	out.proven = a.proven && b.proven
	out.lost = a.lost || b.lost
	for k := range a.appendErrs {
		if b.appendErrs[k] {
			out.appendErrs[k] = true
		}
	}
	for k := range a.syncErrs {
		if b.syncErrs[k] {
			out.syncErrs[k] = true
		}
	}
	return out
}

func durEqual(a, b *durFacts) bool {
	return a.durable == b.durable && a.proven == b.proven && a.lost == b.lost &&
		maps.Equal(a.appendErrs, b.appendErrs) && maps.Equal(a.syncErrs, b.syncErrs)
}

// checkAckOrdering runs check 1 on one function: a diagnostic at every
// acknowledgement reached without the durable fact.
func (dc *durChecker) checkAckOrdering(pkg *Package, fd *ast.FuncDecl) {
	g := buildCFG(fd.Body)
	relevant := false
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if len(ackSites(pkg, n)) > 0 {
				relevant = true
			}
		}
	}
	if !relevant {
		return
	}
	appends := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && journalMethod(pkg.Info, call) == "Append" {
			appends = true
		}
		return true
	})
	solve(g, newDurFacts(appends), flow[*durFacts]{
		clone: (*durFacts).clone,
		join: func(cur, in *durFacts) (*durFacts, bool) {
			merged := meetDur(cur, in)
			return merged, !durEqual(merged, cur)
		},
		transfer: func(n ast.Node, fs *durFacts) { dc.durTransfer(pkg, n, fs) },
		leaf:     func(c ast.Expr, holds bool, fs *durFacts) { dc.durLeaf(pkg, c, holds, fs) },
	}).replay(func(n ast.Node, fs *durFacts) {
		if !fs.durable {
			for _, pos := range ackSites(pkg, n) {
				dc.report(pos, "command acknowledged (Result OK) on a path where the journal append+fsync is not proven complete")
			}
		}
	})
}

// ackSites returns the position of every acknowledgement inside one CFG
// node: `Result{OK: true}` literals and stores to a Result's OK field of
// anything but the constant false. A range statement heads its loop and
// nests the body, whose statements are CFG nodes of their own, so only
// its header expressions are searched.
func ackSites(pkg *Package, n ast.Node) []token.Pos {
	var sites []token.Pos
	visit := func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CompositeLit:
			if ackLiteral(pkg, m) {
				sites = append(sites, m.Pos())
			}
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				sel, ok := unparen(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "OK" || !isNamedStruct(pkg.Info, sel.X, "Result") {
					continue
				}
				if len(m.Rhs) == len(m.Lhs) {
					if v, ok := unparen(m.Rhs[i]).(*ast.Ident); ok && v.Name == "false" {
						continue
					}
				}
				sites = append(sites, lhs.Pos())
			}
		}
		return true
	}
	if rs, ok := n.(*ast.RangeStmt); ok {
		ast.Inspect(rs.X, visit)
		return sites
	}
	ast.Inspect(n, visit)
	return sites
}

// ackLiteral reports whether lit is a Result composite literal with
// OK: true.
func ackLiteral(pkg *Package, lit *ast.CompositeLit) bool {
	if !isNamedStruct(pkg.Info, lit, "Result") {
		return false
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "OK" {
			if v, ok := unparen(kv.Value).(*ast.Ident); ok && v.Name == "true" {
				return true
			}
		}
	}
	return false
}

// ackResult returns the Result{OK: true} composite literal among a
// return statement's results, if any.
func ackResult(pkg *Package, ret *ast.ReturnStmt) *ast.CompositeLit {
	for _, r := range ret.Results {
		if lit, ok := unparen(r).(*ast.CompositeLit); ok && ackLiteral(pkg, lit) {
			return lit
		}
	}
	return nil
}

func isNamedStruct(info *types.Info, e ast.Expr, name string) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && named.Obj().Name() == name
}

// journalMethod reports whether a call is Journal.Append / Journal.Sync
// (receiver type named Journal, any package).
func journalMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if name != "Append" && name != "Sync" {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Journal" {
		return ""
	}
	return name
}

// journalHandle reports whether an expression denotes a *Journal value
// (the plane's handle field), for the `jr == nil` disabled-journal gen.
func journalHandle(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	p, ok := tv.Type.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Journal"
}

// durTransfer applies one node's effect on the check 1 facts.
func (dc *durChecker) durTransfer(pkg *Package, n ast.Node, fs *durFacts) {
	if lhs, call := stmtCall(n); call != nil {
		dc.durCall(pkg, lhs, call, fs)
		return
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				killDurIdent(fs, id.Name)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := s.X.(*ast.Ident); ok {
			killDurIdent(fs, id.Name)
		}
	}
}

func killDurIdent(fs *durFacts, name string) {
	delete(fs.appendErrs, name)
	delete(fs.syncErrs, name)
}

// boundIdent names the local a call's single result (the error of an
// Append or a Sync) is assigned to, or "" when it is dropped or lands
// anywhere else.
func boundIdent(lhs []ast.Expr) string {
	if len(lhs) == 1 {
		if id, ok := lhs[0].(*ast.Ident); ok && id.Name != "_" {
			return id.Name
		}
	}
	return ""
}

// durCall records the results of Append/Sync calls.
func (dc *durChecker) durCall(pkg *Package, lhs []ast.Expr, call *ast.CallExpr, fs *durFacts) {
	for _, l := range lhs {
		if id, ok := l.(*ast.Ident); ok {
			killDurIdent(fs, id.Name)
		}
	}
	bound := boundIdent(lhs)
	switch journalMethod(pkg.Info, call) {
	case "Append":
		// A fresh record is in flight: prior durability no longer
		// covers it. An earlier Append still unproven stays so for good:
		// its error local is about to be reused or was never kept.
		if !fs.proven {
			fs.lost = true
		}
		fs.durable, fs.proven = false, false
		fs.syncErrs = map[string]bool{} // a Sync issued earlier does not cover it
		if bound != "" {
			fs.appendErrs[bound] = true
		} else {
			fs.lost = true
		}
	case "Sync":
		if bound != "" {
			fs.syncErrs[bound] = true
		}
	}
}

// nilTest reports what one leaf of a branch condition says about nil:
// the expression compared against nil, and whether it is nil on the
// edge where cond evaluates to holds. x is nil for any other leaf.
func nilTest(cond ast.Expr, holds bool) (x ast.Expr, isNil bool) {
	c, ok := cond.(*ast.BinaryExpr)
	if !ok || c.Op != token.EQL && c.Op != token.NEQ {
		return nil, false
	}
	return nilOperand(c.X, c.Y), (c.Op == token.EQL) == holds
}

// durLeaf turns `x == nil` holding into durability facts.
func (dc *durChecker) durLeaf(pkg *Package, cond ast.Expr, holds bool, fs *durFacts) {
	if x, isNil := nilTest(cond, holds); x != nil && isNil {
		dc.nilCompare(pkg, x, fs)
	}
}

// nilOperand returns the non-nil side of a comparison against nil, or
// nil when neither side is the nil identifier.
func nilOperand(a, b ast.Expr) ast.Expr {
	if id, ok := unparen(b).(*ast.Ident); ok && id.Name == "nil" {
		return unparen(a)
	}
	if id, ok := unparen(a).(*ast.Ident); ok && id.Name == "nil" {
		return unparen(b)
	}
	return nil
}

// nilCompare handles `x == nil` holding: x an Append error proves that
// append, x a Sync error proves durability of a run of proven appends,
// x the journal handle means journaling is disabled entirely.
func (dc *durChecker) nilCompare(pkg *Package, x ast.Expr, fs *durFacts) {
	if id, ok := x.(*ast.Ident); ok {
		if fs.appendErrs[id.Name] {
			delete(fs.appendErrs, id.Name)
			fs.proven = !fs.lost
		}
		if fs.syncErrs[id.Name] && fs.proven && fs.appends {
			fs.durable = true
		}
		return
	}
	if journalHandle(pkg.Info, x) {
		fs.durable = true
	}
}

// unsyncFacts is the may-state of check 2 at one program point.
type unsyncFacts struct {
	open    bool   // an accepted append may not be covered by a tested Sync yet
	snap    bool   // ...and the open appends are not all command records
	errName string // local holding the latest Append's or Sync's untested error
	syncing bool   // errName holds a Sync's error, not an Append's
}

func (fs *unsyncFacts) close() { *fs = unsyncFacts{} }

// checkUnsynced runs check 2: a may-analysis for the window between a
// successful Append and the tested Sync that makes it durable.
func (dc *durChecker) checkUnsynced(pkg *Package, fd *ast.FuncDecl) {
	solve(buildCFG(fd.Body), &unsyncFacts{}, flow[*unsyncFacts]{
		clone: func(fs *unsyncFacts) *unsyncFacts { c := *fs; return &c },
		join: func(cur, in *unsyncFacts) (*unsyncFacts, bool) {
			// May-analysis: union; an open side's pending error wins.
			merged := *cur
			if in.open && !cur.open {
				merged = *in
			}
			merged.snap = cur.snap || in.snap
			return &merged, merged != *cur
		},
		transfer: func(n ast.Node, fs *unsyncFacts) { unsyncTransfer(pkg, n, fs) },
		leaf:     func(c ast.Expr, holds bool, fs *unsyncFacts) { unsyncLeaf(pkg, c, holds, fs) },
	}).replay(func(n ast.Node, fs *unsyncFacts) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			// An acknowledging return is the ack-ordering analysis's
			// finding; reporting both here would double-count the same
			// defect.
			if fs.open && !returnsSync(pkg, ret) && ackResult(pkg, ret) == nil {
				dc.report(n.Pos(), "return with a journal append not yet fsynced: the record can be lost after the caller proceeds")
			}
			return
		}
		if _, call := stmtCall(n); call != nil && journalMethod(pkg.Info, call) == "Append" &&
			fs.open && (fs.snap || !cmdRecordAppend(pkg, call)) {
			dc.report(call.Pos(), "journal append while a previous append is not yet fsynced (a snapshot record must not race an unsynced command record)")
		}
	})
}

// stmtCall returns the call a statement consists of (`x := f()` or
// `f()`), and the targets its results are bound to.
func stmtCall(n ast.Node) (lhs []ast.Expr, call *ast.CallExpr) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			call, _ = unparen(s.Rhs[0]).(*ast.CallExpr)
			lhs = s.Lhs
		}
	case *ast.ExprStmt:
		call, _ = unparen(s.X).(*ast.CallExpr)
	}
	return lhs, call
}

// returnsSync reports a Journal.Sync call among a return's results:
// `return jr.Sync()` hands the Sync's error to the caller, so the window
// closes in the result expression itself.
func returnsSync(pkg *Package, ret *ast.ReturnStmt) bool {
	found := false
	for _, r := range ret.Results {
		ast.Inspect(r, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok && journalMethod(pkg.Info, c) == "Sync" {
				found = true
			}
			return !found
		})
	}
	return found
}

// unsyncTransfer applies one node's effect on the check 2 window.
func unsyncTransfer(pkg *Package, n ast.Node, fs *unsyncFacts) {
	if ret, ok := n.(*ast.ReturnStmt); ok {
		if returnsSync(pkg, ret) {
			fs.close()
		}
		return
	}
	lhs, call := stmtCall(n)
	if call == nil {
		return
	}
	switch journalMethod(pkg.Info, call) {
	case "Append":
		fs.snap = fs.open && fs.snap || !cmdRecordAppend(pkg, call)
		fs.open, fs.errName, fs.syncing = true, boundIdent(lhs), false
	case "Sync":
		// The window stays open until the Sync's error is looked at.
		if fs.open {
			fs.errName, fs.syncing = boundIdent(lhs), true
		}
	}
}

// unsyncLeaf closes the window on the edges where it is over: the
// pending error tested, or the journal handle nil.
func unsyncLeaf(pkg *Package, cond ast.Expr, holds bool, fs *unsyncFacts) {
	x, isNil := nilTest(cond, holds)
	if x == nil {
		return
	}
	if id, ok := x.(*ast.Ident); ok {
		if !fs.open || fs.errName == "" || id.Name != fs.errName {
			return
		}
		// A tested Sync closes the window either way: durable, or
		// failed and the plane freezes. A failed Append freezes it
		// too; a successful one leaves its record waiting.
		if fs.syncing || !isNil {
			fs.close()
		}
		return
	}
	if isNil && journalHandle(pkg.Info, x) {
		fs.close() // no journal, nothing unsynced
	}
}

// cmdRecordAppend reports whether an Append call's argument is a
// command record spelled out in place: `&Record{Kind: K, ...}` with K a
// constant equal to "cmd". Anything else — a record built elsewhere, a
// snapshot, a header — is not, which fails closed inside a window.
func cmdRecordAppend(pkg *Package, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	addr, ok := unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return false
	}
	lit, ok := unparen(addr.X).(*ast.CompositeLit)
	if !ok || !isNamedStruct(pkg.Info, lit, "Record") {
		return false
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Kind" {
			tv := pkg.Info.Types[kv.Value]
			return tv.Value != nil && tv.Value.Kind() == constant.String && constant.StringVal(tv.Value) == "cmd"
		}
	}
	return false
}

// checkGoSpawns runs check 3: no spawned goroutine may transitively
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
