package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// shardSafety statically proves the conservative-PDES share-nothing
// contract (DESIGN.md "Sharded execution"): state reachable from a
// shard.Executor Par stage is classified shard-owned or shared, writes
// from a Par stage must hit owned memory only, and reads of another
// shard's Par-written state are flagged. Serial stages run alone behind
// the cycle barrier and are exempt.
//
// Ownership is a small flow-sensitive kind system evaluated over each
// Par stage's CFG and, context-sensitively, over the same-package
// functions it calls:
//
//   - mem: the expression denotes memory owned by this shard — the
//     //ssvc:shards directory element at the stage's shard index, fresh
//     allocations, and anything reached from owned memory through
//     fields, elements, and dereferences.
//   - tok: an owned token — a value whose integer fields are trusted
//     shard-local indices (port ids). Tokens arise only at id-carrying
//     sources: elements of //ssvc:owned-index containers at proven
//     indices, //ssvc:mailbox slots at the shard index, parameters of
//     closures invoked by owned state (packets from our own queues),
//     and results of calls on owned receivers. Selecting a field of a
//     token yields mem, not tok: data loaded from owned memory does not
//     confer index trust (a stored neighbor link must still be guarded).
//
// Proven indices are: the stage's shard parameter (for the shards and
// mailbox containers), integer fields of tokens, `sh.lo + e` where sh
// is an owned shard struct (the local-offset idiom; the offset bound is
// trusted), and loop variables carrying both `i >= sh.lo` and
// `i < sh.hi` facts. The guard `x.owner == sh` (//ssvc:owner
// back-pointer) promotes x to mem on the true edge — the halo-exchange
// idiom all three engines use.
//
// Cross-package calls are checked against the interprocedural effect
// summaries of callgraph.go: a callee that writes package-level state,
// spawns a goroutine, or writes through a pointer-like argument the
// caller cannot prove owned is flagged; interface calls resolve through
// CHA. Calls through func values stored in struct fields (hooks bound
// at construction) are trusted, as are standard-library callees.
// Remaining deliberate imprecision: the stage-phase barrier between two
// Par stages of one program is not modeled (the mailbox annotation
// carries that contract), and token integer fields are trusted without
// a range proof.
func shardSafety(p *pass, pkgs []*Package) {
	cg := p.cg
	sc := &shardChecker{
		pass:       p,
		parWritten: map[*types.Var]bool{},
		visited:    map[string]bool{},
		seen:       map[string]bool{},
	}
	// Pass 1: find every stage program and classify which fields any Par
	// stage may write (the union over all programs; field objects are
	// distinct per engine so nothing bleeds between packages).
	var roots []parRoot
	for _, pkg := range pkgs {
		roots = append(roots, sc.collectStages(pkg)...)
	}
	for _, r := range roots {
		if !r.par {
			// Serial stages run alone behind the barrier; their writes
			// (cycle counter, committed masks) cannot race a Par read.
			continue
		}
		var sum *effectSummary
		if r.fn != nil {
			sum = cg.summaries[r.fn]
		} else if r.lit != nil {
			sum = cg.litSummary(r.lit, r.pkg)
		}
		if sum == nil {
			continue
		}
		for fv := range sum.written {
			sc.parWritten[fv] = true
		}
	}
	// Pass 2: flow-check each Par root.
	for _, r := range roots {
		if !r.par {
			continue
		}
		if r.fn != nil {
			if fi := cg.funcs[r.fn]; fi != nil {
				sc.analyzeFunc(fi, kindNone, parRootParamKinds(fi.decl.Type.Params), 0)
			}
		} else if r.lit != nil {
			sc.analyzeLit(r.lit, r.pkg, litEntry(r.lit, kindSIdx), 0)
		}
	}
}

// parRoot is one stage entry: a method/function bound as Par or Serial
// in a []shard.Stage program.
type parRoot struct {
	fn  *types.Func
	lit *ast.FuncLit
	pkg *Package
	par bool
}

// collectStages finds shard.Stage composite literals and resolves their
// Par/Serial entries. The Stage type is matched by name ("Stage" in a
// package named "shard") so fixture packages exercising the analyzer
// against the real executor type work unchanged.
func (sc *shardChecker) collectStages(pkg *Package) []parRoot {
	var roots []parRoot
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !isStageType(pkg.Info, lit) {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || (key.Name != "Par" && key.Name != "Serial") {
					continue
				}
				r := parRoot{pkg: pkg, par: key.Name == "Par"}
				switch v := unparen(kv.Value).(type) {
				case *ast.FuncLit:
					r.lit = v
				case *ast.SelectorExpr:
					if s, ok := pkg.Info.Selections[v]; ok {
						if fn, ok := s.Obj().(*types.Func); ok {
							r.fn = fn
						}
					}
				case *ast.Ident:
					if fn, ok := pkg.Info.Uses[v].(*types.Func); ok {
						r.fn = fn
					}
				}
				if r.fn != nil || r.lit != nil {
					roots = append(roots, r)
				}
			}
			return true
		})
	}
	return roots
}

// isStageType reports whether a composite literal's type is the shard
// executor's Stage struct.
func isStageType(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Stage" && obj.Pkg() != nil && obj.Pkg().Name() == "shard"
}

// shardKind is the ownership kind of an expression's value.
type shardKind int

const (
	kindNone shardKind = iota // shared or unproven
	kindMem                   // memory owned by this shard
	kindTok                   // owned token: integer fields are trusted indices
	kindSIdx                  // the stage's shard-index parameter itself
)

// identFact is the flow fact tracked per identifier.
type identFact struct {
	kind   shardKind
	loBase string // non-empty: ident >= <base>.lo (base rendered source)
	ltBase string // non-empty: ident < <base>.hi
	lit    *ast.FuncLit
}

func (f identFact) empty() bool {
	return f.kind == kindNone && f.loBase == "" && f.ltBase == "" && f.lit == nil
}

// shardFacts maps identifier name -> fact.
type shardFacts map[string]identFact

func intersectShardFacts(a, b shardFacts) shardFacts {
	out := shardFacts{}
	for name, fa := range a {
		fb, ok := b[name]
		if !ok {
			continue
		}
		m := identFact{}
		if fa.kind == fb.kind {
			m.kind = fa.kind
		}
		if fa.loBase == fb.loBase {
			m.loBase = fa.loBase
		}
		if fa.ltBase == fb.ltBase {
			m.ltBase = fa.ltBase
		}
		if fa.lit == fb.lit {
			m.lit = fa.lit
		}
		if !m.empty() {
			out[name] = m
		}
	}
	return out
}

// shardChecker carries the per-run state of the analyzer.
type shardChecker struct {
	*pass
	parWritten map[*types.Var]bool
	visited    map[string]bool // func+context memo: diagnostics emitted once
	seen       map[string]bool // diagnostic dedup across contexts
}

const maxShardDepth = 24

// report is pass.report once per position and message: one function is
// checked under every calling context that reaches it.
func (sc *shardChecker) report(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	file, line := sc.l.Rel(pos)
	key := fmt.Sprintf("%s\x00%d\x00%s", file, line, msg)
	if !sc.seen[key] {
		sc.seen[key] = true
		sc.pass.report(pos, "%s", msg)
	}
}

// parRootParamKinds marks a Par entry's single int parameter as the
// shard index.
func parRootParamKinds(params *ast.FieldList) []shardKind {
	n := 0
	if params != nil {
		for _, f := range params.List {
			if len(f.Names) == 0 {
				n++
			}
			n += len(f.Names)
		}
	}
	kinds := make([]shardKind, n)
	if n == 1 {
		kinds[0] = kindSIdx
	}
	return kinds
}

func litEntry(lit *ast.FuncLit, k shardKind) shardFacts {
	fs := shardFacts{}
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				fs[name.Name] = identFact{kind: k}
			}
		}
	}
	return fs
}

// ctxKey renders a function+context for memoization.
func ctxKey(fn *types.Func, recv shardKind, params []shardKind) string {
	key := fn.FullName() + "|" + string(rune('a'+int(recv)))
	for _, k := range params {
		key += string(rune('a' + int(k)))
	}
	return key
}

// analyzeFunc flow-checks one function declaration under a calling
// context (receiver kind + parameter kinds).
func (sc *shardChecker) analyzeFunc(fi *funcInfo, recv shardKind, params []shardKind, depth int) {
	if depth > maxShardDepth || fi.decl.Body == nil {
		return
	}
	key := ctxKey(fi.fn, recv, params)
	if sc.visited[key] {
		return
	}
	sc.visited[key] = true
	entry := shardFacts{}
	slot := 0
	bind := func(fl *ast.FieldList, kinds []shardKind, base int) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				slot++
				continue
			}
			for _, name := range f.Names {
				k := kindNone
				if base+slot == 0 && fl == fi.decl.Recv {
					k = recv
				} else if idx := slot; idx < len(kinds) {
					k = kinds[idx]
				}
				if k != kindNone {
					entry[name.Name] = identFact{kind: k}
				}
				slot++
			}
		}
	}
	if fi.decl.Recv != nil {
		for _, f := range fi.decl.Recv.List {
			for _, name := range f.Names {
				if recv != kindNone {
					entry[name.Name] = identFact{kind: recv}
				}
			}
		}
	}
	slot = 0
	bind(fi.decl.Type.Params, params, 1)
	sc.runBody(fi.pkg, fi.decl.Body, entry, depth)
}

// analyzeLit flow-checks a function literal with the given entry facts.
func (sc *shardChecker) analyzeLit(lit *ast.FuncLit, pkg *Package, entry shardFacts, depth int) {
	if depth > maxShardDepth {
		return
	}
	sc.runBody(pkg, lit.Body, entry, depth)
}

// runBody solves the ownership facts of one body (a must-analysis:
// intersection at joins), then checks every node under the facts in
// force before it.
func (sc *shardChecker) runBody(pkg *Package, body *ast.BlockStmt, entry shardFacts, depth int) {
	solve(buildCFG(body), entry, flow[shardFacts]{
		clone: maps.Clone[shardFacts],
		join: func(cur, in shardFacts, _ int) (shardFacts, bool) {
			merged := intersectShardFacts(cur, in)
			return merged, !maps.Equal(merged, cur)
		},
		transfer: func(n ast.Node, fs shardFacts) { sc.transfer(pkg, n, fs) },
		leaf:     func(c ast.Expr, holds bool, fs shardFacts) { sc.edgeFact(pkg, c, holds, fs) },
	}).replay(func(n ast.Node, fs shardFacts) { sc.checkNode(pkg, n, fs, depth) })
}

// transfer applies one CFG node's kills and gens (no diagnostics).
func (sc *shardChecker) transfer(pkg *Package, n ast.Node, fs shardFacts) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		aligned := len(s.Lhs) == len(s.Rhs)
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			delete(fs, id.Name)
			if !aligned {
				continue
			}
			f := sc.factFor(pkg, s.Rhs[i], fs)
			if !f.empty() {
				fs[id.Name] = f
			}
		}
	case *ast.IncDecStmt:
		if id, ok := s.X.(*ast.Ident); ok {
			old, had := fs[id.Name]
			delete(fs, id.Name)
			if had && s.Tok == token.INC && old.loBase != "" {
				// i++ preserves i >= sh.lo; the upper bound must be
				// re-proven at the loop head.
				fs[id.Name] = identFact{loBase: old.loBase}
			}
		}
	case *ast.RangeStmt:
		elemKind := sc.evalKind(pkg, s.X, fs)
		if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
			delete(fs, id.Name)
		}
		if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
			delete(fs, id.Name)
			if elemKind == kindMem || elemKind == kindTok {
				fs[id.Name] = identFact{kind: elemKind}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					delete(fs, name.Name)
					if len(vs.Values) == len(vs.Names) {
						if f := sc.factFor(pkg, vs.Values[i], fs); !f.empty() {
							fs[name.Name] = f
						}
					}
				}
			}
		}
	}
}

// factFor computes the fact a single-value assignment establishes.
func (sc *shardChecker) factFor(pkg *Package, rhs ast.Expr, fs shardFacts) identFact {
	rhs = unparen(rhs)
	if lit, ok := rhs.(*ast.FuncLit); ok {
		return identFact{lit: lit}
	}
	f := identFact{kind: sc.evalKind(pkg, rhs, fs)}
	// i := sh.lo establishes the loop lower bound.
	if sel, ok := rhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "lo" {
		if sc.evalKind(pkg, sel.X, fs) == kindMem && sc.isShardStruct(pkg, sel.X) {
			f.loBase = types.ExprString(sel.X)
		}
	}
	if f.kind == kindSIdx {
		// Copying the shard index keeps it.
		return f
	}
	return f
}

// isShardStruct reports whether an expression's type is (a pointer to)
// a //ssvc:shards element struct.
func (sc *shardChecker) isShardStruct(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && sc.cg.shardStructs[named]
}

// edgeFact records the ownership fact one comparison that holds
// establishes: an upper bound from `i < sh.hi` (either spelling), or
// ownership from an owner-pointer equality.
func (sc *shardChecker) edgeFact(pkg *Package, cond ast.Expr, holds bool, fs shardFacts) {
	c, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch {
	case c.Op == token.LSS && holds: // i < sh.hi
		sc.upperBound(pkg, c.X, c.Y, fs)
	case c.Op == token.GTR && holds: // sh.hi > i
		sc.upperBound(pkg, c.Y, c.X, fs)
	case c.Op == token.EQL && holds, c.Op == token.NEQ && !holds:
		sc.ownerGuard(pkg, c.X, c.Y, fs)
	}
}

// upperBound records i < base.hi when base is an owned shard struct.
func (sc *shardChecker) upperBound(pkg *Package, i, bound ast.Expr, fs shardFacts) {
	id, ok := unparen(i).(*ast.Ident)
	if !ok {
		return
	}
	sel, ok := unparen(bound).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "hi" {
		return
	}
	if sc.evalKind(pkg, sel.X, fs) != kindMem || !sc.isShardStruct(pkg, sel.X) {
		return
	}
	f := fs[id.Name]
	f.ltBase = types.ExprString(sel.X)
	fs[id.Name] = f
}

// ownerGuard handles `x.owner == sh` (either orientation): on the edge
// where it holds, x is this shard's.
func (sc *shardChecker) ownerGuard(pkg *Package, a, b ast.Expr, fs shardFacts) {
	try := func(selSide, shSide ast.Expr) {
		sel, ok := unparen(selSide).(*ast.SelectorExpr)
		if !ok {
			return
		}
		fv := fieldVarOf(pkg.Info, sel)
		if fv == nil || sc.cg.fieldMark[fv] != MarkOwner {
			return
		}
		id, ok := unparen(shSide).(*ast.Ident)
		if !ok {
			return
		}
		if fs[id.Name].kind != kindMem || !sc.isShardStruct(pkg, shSide) {
			return
		}
		if base, ok := unparen(sel.X).(*ast.Ident); ok {
			f := fs[base.Name]
			f.kind = kindMem
			fs[base.Name] = f
		}
	}
	try(a, b)
	try(b, a)
}

func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if fv, ok := s.Obj().(*types.Var); ok {
			return fv
		}
	}
	return nil
}

// evalKind computes an expression's ownership kind under the facts. It
// is pure: the diagnostic-emitting twin is checkExpr.
func (sc *shardChecker) evalKind(pkg *Package, e ast.Expr, fs shardFacts) shardKind {
	switch e := e.(type) {
	case *ast.Ident:
		return fs[e.Name].kind
	case *ast.ParenExpr:
		return sc.evalKind(pkg, e.X, fs)
	case *ast.SelectorExpr:
		switch sc.evalKind(pkg, e.X, fs) {
		case kindMem, kindTok:
			// Data loaded from owned memory is owned memory; token-ness
			// (index trust) does not propagate through a load.
			return kindMem
		}
		return kindNone
	case *ast.StarExpr:
		return sc.evalKind(pkg, e.X, fs)
	case *ast.SliceExpr:
		return sc.evalKind(pkg, e.X, fs)
	case *ast.TypeAssertExpr:
		return sc.evalKind(pkg, e.X, fs)
	case *ast.IndexExpr:
		if k := sc.evalKind(pkg, e.X, fs); k == kindMem || k == kindTok {
			return k
		}
		return sc.containerKind(pkg, e, fs)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return sc.evalKind(pkg, e.X, fs)
		}
		return kindNone
	case *ast.CompositeLit:
		return kindMem
	case *ast.CallExpr:
		return sc.callKind(pkg, e, fs)
	}
	return kindNone
}

// containerKind applies the annotated-container rules to an index
// expression whose base is not itself owned.
func (sc *shardChecker) containerKind(pkg *Package, e *ast.IndexExpr, fs shardFacts) shardKind {
	sel, ok := unparen(e.X).(*ast.SelectorExpr)
	if !ok {
		return kindNone
	}
	fv := fieldVarOf(pkg.Info, sel)
	if fv == nil {
		return kindNone
	}
	switch sc.cg.fieldMark[fv] {
	case MarkShards:
		if sc.isShardIndex(e.Index, fs) {
			return kindMem
		}
	case MarkMailbox:
		if sc.isShardIndex(e.Index, fs) {
			return kindTok
		}
	case MarkOwnedIndex:
		if sc.ownedIdx(pkg, e.Index, fs) {
			return kindTok
		}
	}
	return kindNone
}

func (sc *shardChecker) isShardIndex(idx ast.Expr, fs shardFacts) bool {
	id, ok := unparen(idx).(*ast.Ident)
	return ok && fs[id.Name].kind == kindSIdx
}

// ownedIdx proves an index expression stays inside this shard's
// [lo, hi) range for an //ssvc:owned-index container.
func (sc *shardChecker) ownedIdx(pkg *Package, idx ast.Expr, fs shardFacts) bool {
	switch e := unparen(idx).(type) {
	case *ast.Ident:
		f := fs[e.Name]
		return f.loBase != "" && f.loBase == f.ltBase
	case *ast.SelectorExpr:
		// Bare sh.lo: the shard's first slot.
		if sc.isLoSelector(pkg, e, fs) {
			return true
		}
		// Integer field of an owned token: a trusted shard-local id
		// (p.Src from our own source queue, in.li, at.Node from the
		// annotated terminal map).
		if sc.evalKind(pkg, e.X, fs) != kindTok {
			return false
		}
		tv, ok := pkg.Info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		basic, ok := tv.Type.Underlying().(*types.Basic)
		return ok && basic.Info()&types.IsInteger != 0
	case *ast.BinaryExpr:
		// The local-offset idiom sh.lo + off (offset bound trusted).
		if e.Op != token.ADD {
			return false
		}
		return sc.isLoSelector(pkg, e.X, fs) || sc.isLoSelector(pkg, e.Y, fs)
	}
	return sc.isLoSelector(pkg, idx, fs) // bare sh.lo: the shard's first port
}

func (sc *shardChecker) isLoSelector(pkg *Package, e ast.Expr, fs shardFacts) bool {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "lo" {
		return false
	}
	return sc.evalKind(pkg, sel.X, fs) == kindMem && sc.isShardStruct(pkg, sel.X)
}

// callKind is the pure ownership kind of a call's result.
func (sc *shardChecker) callKind(pkg *Package, call *ast.CallExpr, fs shardFacts) shardKind {
	fun := unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if len(call.Args) > 0 {
					return sc.evalKind(pkg, call.Args[0], fs)
				}
			case "make", "new":
				return kindMem
			}
			return kindNone
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return sc.evalKind(pkg, call.Args[0], fs)
		}
		return kindNone
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			switch sc.evalKind(pkg, sel.X, fs) {
			case kindMem, kindTok:
				// A method on owned state hands back owned state — the
				// engines' currentRequest/bufferFor idiom. Its body is
				// still summary- or flow-checked at the call site.
				return kindTok
			}
		}
	}
	return kindNone
}

// checkNode emits diagnostics for one CFG node under the entry facts.
func (sc *shardChecker) checkNode(pkg *Package, n ast.Node, fs shardFacts, depth int) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			sc.checkLval(pkg, lhs, fs, depth)
		}
		for _, rhs := range s.Rhs {
			sc.checkExpr(pkg, rhs, fs, depth, nil)
		}
	case *ast.IncDecStmt:
		sc.checkLval(pkg, s.X, fs, depth)
	case *ast.GoStmt:
		sc.report(s.Pos(), "goroutine spawned from a Par stage breaks the cycle-barrier execution model")
	case *ast.DeferStmt:
		sc.checkExpr(pkg, s.Call, fs, depth, nil)
	case *ast.SendStmt:
		sc.report(s.Pos(), "channel send from a Par stage publishes state outside the shard; exchange through an //ssvc:mailbox instead")
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			sc.checkExpr(pkg, r, fs, depth, nil)
		}
	case *ast.ExprStmt:
		sc.checkExpr(pkg, s.X, fs, depth, nil)
	case *ast.RangeStmt:
		sc.checkExpr(pkg, s.X, fs, depth, nil)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.checkExpr(pkg, v, fs, depth, nil)
					}
				}
			}
		}
	case ast.Expr:
		sc.checkExpr(pkg, s, fs, depth, nil)
	}
}

// checkLval verifies a Par-stage write hits owned memory.
func (sc *shardChecker) checkLval(pkg *Package, lv ast.Expr, fs shardFacts, depth int) {
	switch e := unparen(lv).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			sc.report(e.Pos(), "write to package-level variable %s from a Par stage", e.Name)
		}
	case *ast.SelectorExpr:
		fv := fieldVarOf(pkg.Info, e)
		if fv != nil && sc.cg.fieldMark[fv] == MarkShared {
			sc.checkExpr(pkg, e.X, fs, depth, nil)
			return
		}
		if sc.checkExpr(pkg, e.X, fs, depth, nil) == kindNone {
			name := "field"
			if fv != nil {
				name = fv.Name()
			}
			sc.report(e.Pos(), "write to %s through a base this shard does not own (Par stages may write only shard-owned state; Serial stages and //ssvc:shared are the escape hatches)", name)
		}
	case *ast.IndexExpr:
		if k := sc.checkExpr(pkg, e.X, fs, depth, map[ast.Expr]bool{}); k != kindNone {
			sc.checkExpr(pkg, e.Index, fs, depth, nil)
			return
		}
		if sc.containerKind(pkg, e, fs) != kindNone {
			sc.checkExpr(pkg, e.Index, fs, depth, nil)
			return
		}
		sc.report(e.Pos(), "write to an element this shard does not own (index not proven inside the shard's range)")
	case *ast.StarExpr:
		if sc.checkExpr(pkg, e.X, fs, depth, nil) == kindNone {
			sc.report(e.Pos(), "write through a pointer this shard does not own")
		}
	}
}

// checkExpr walks an expression emitting read and call diagnostics and
// returns its ownership kind. sanctioned marks selector nodes already
// blessed by an enclosing mailbox access.
func (sc *shardChecker) checkExpr(pkg *Package, e ast.Expr, fs shardFacts, depth int, sanctioned map[ast.Expr]bool) shardKind {
	switch e := e.(type) {
	case *ast.Ident:
		return fs[e.Name].kind
	case *ast.ParenExpr:
		return sc.checkExpr(pkg, e.X, fs, depth, sanctioned)
	case *ast.SelectorExpr:
		k := sc.checkExpr(pkg, e.X, fs, depth, sanctioned)
		if k == kindMem || k == kindTok {
			return kindMem
		}
		fv := fieldVarOf(pkg.Info, e)
		if fv != nil && sc.parWritten[fv] && sc.cg.fieldMark[fv] != MarkShared &&
			sc.cg.fieldMark[fv] != MarkMailbox && (sanctioned == nil || !sanctioned[e]) {
			sc.report(e.Pos(), "read of Par-written field %s through a base this shard does not own (another shard may be writing it this stage)", fv.Name())
		}
		return kindNone
	case *ast.StarExpr:
		return sc.checkExpr(pkg, e.X, fs, depth, sanctioned)
	case *ast.SliceExpr:
		return sc.checkExpr(pkg, e.X, fs, depth, sanctioned)
	case *ast.TypeAssertExpr:
		return sc.checkExpr(pkg, e.X, fs, depth, sanctioned)
	case *ast.IndexExpr:
		// Bless the mailbox read shape before descending so the slot
		// selector is not flagged as a foreign read.
		if ck := sc.containerKind(pkg, e, fs); ck != kindNone {
			if sanctioned == nil {
				sanctioned = map[ast.Expr]bool{}
			}
			if sel, ok := unparen(e.X).(*ast.SelectorExpr); ok {
				sanctioned[sel] = true
			}
			sc.checkExpr(pkg, e.X, fs, depth, sanctioned)
			sc.checkExpr(pkg, e.Index, fs, depth, nil)
			return ck
		}
		k := sc.checkExpr(pkg, e.X, fs, depth, sanctioned)
		sc.checkExpr(pkg, e.Index, fs, depth, nil)
		if k == kindMem || k == kindTok {
			return k
		}
		return kindNone
	case *ast.UnaryExpr:
		k := sc.checkExpr(pkg, e.X, fs, depth, sanctioned)
		if e.Op == token.AND {
			return k
		}
		return kindNone
	case *ast.BinaryExpr:
		sc.checkExpr(pkg, e.X, fs, depth, sanctioned)
		sc.checkExpr(pkg, e.Y, fs, depth, sanctioned)
		return kindNone
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			sc.checkExpr(pkg, elt, fs, depth, nil)
		}
		return kindMem
	case *ast.CallExpr:
		return sc.checkCall(pkg, e, fs, depth)
	case *ast.FuncLit:
		// A literal merely defined here is analyzed where it is invoked.
		return kindNone
	}
	return kindNone
}

// checkCall verifies one call from a Par context and returns the
// result's ownership kind.
func (sc *shardChecker) checkCall(pkg *Package, call *ast.CallExpr, fs shardFacts, depth int) shardKind {
	fun := unparen(call.Fun)
	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "copy", "delete":
				if len(call.Args) > 0 {
					sc.checkLval(pkg, call.Args[0], fs, depth)
					for _, a := range call.Args[1:] {
						sc.checkExpr(pkg, a, fs, depth, nil)
					}
					return kindNone
				}
			}
			for _, a := range call.Args {
				sc.checkExpr(pkg, a, fs, depth, nil)
			}
			return sc.callKind(pkg, call, fs)
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			sc.checkExpr(pkg, a, fs, depth, nil)
		}
		return sc.callKind(pkg, call, fs)
	}

	// Resolve callees.
	var callees []*types.Func
	var recvExpr ast.Expr
	var litCallee *ast.FuncLit
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			callees = []*types.Func{obj}
		case *types.Var:
			if f := fs[fun.Name]; f.lit != nil {
				litCallee = f.lit
			}
		}
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			recvExpr = fun.X
			if types.IsInterface(s.Recv()) {
				callees = sc.cg.implementers(s.Recv(), fun.Sel.Name)
			} else if fn, ok := s.Obj().(*types.Func); ok {
				callees = []*types.Func{fn}
			}
		} else if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			callees = []*types.Func{fn}
		}
		// else: stored hook — trusted.
	case *ast.FuncLit:
		litCallee = fun
	}

	// Evaluate receiver and arguments (reads inside them are checked).
	var recvKind shardKind
	if recvExpr != nil {
		recvKind = sc.checkExpr(pkg, recvExpr, fs, depth, nil)
	}
	argKinds := make([]shardKind, len(call.Args))
	for i, a := range call.Args {
		argKinds[i] = sc.checkExpr(pkg, a, fs, depth, nil)
	}

	if litCallee != nil {
		entry := maps.Clone(fs)
		bindLitParams(litCallee, argKinds, entry)
		sc.analyzeLit(litCallee, pkg, entry, depth+1)
		return kindNone
	}
	result := sc.callKind(pkg, call, fs)
	for _, fn := range callees {
		sc.checkCallee(pkg, call, fn, recvExpr, recvKind, argKinds, fs, depth)
	}
	return result
}

// checkCallee applies the per-callee rules: serial-only marking, same-
// package context-sensitive recursion, or cross-package summary checks.
func (sc *shardChecker) checkCallee(pkg *Package, call *ast.CallExpr, fn *types.Func, recvExpr ast.Expr, recvKind shardKind, argKinds []shardKind, fs shardFacts, depth int) {
	if sc.cg.serialOnly[fn] {
		sc.report(call.Pos(), "%s is //ssvc:serial-only but is called from a Par stage", fn.Name())
		return
	}
	fi := sc.cg.funcs[fn]
	if fi == nil {
		return // outside the module: trusted
	}
	sum := sc.cg.summaries[fn]
	slots := argKinds
	exprs := call.Args
	if recvExpr != nil {
		slots = append([]shardKind{recvKind}, argKinds...)
		exprs = append([]ast.Expr{recvExpr}, call.Args...)
	}
	// A callback handed to an owned callee receives owned tokens (the
	// engines' AdmitGroup idiom: packets from this shard's own queues);
	// on an unowned callee its parameters prove nothing.
	cbKind := kindNone
	if recvKind == kindMem || recvKind == kindTok {
		cbKind = kindTok
	}
	if sum != nil {
		for j := range slots {
			if j >= len(sum.callsParam) {
				break
			}
			if sum.callsParam[j] {
				if lit := literalArg(exprs[j], fs); lit != nil {
					entry := maps.Clone(fs)
					bindLitParamsKind(lit, cbKind, entry)
					sc.analyzeLit(lit, pkg, entry, depth+1)
				}
			}
		}
	}
	if fi.pkg == pkg {
		// Same package: recurse with the call-site ownership context.
		params := make([]shardKind, len(argKinds))
		copy(params, argKinds)
		for i, a := range call.Args {
			if id, ok := unparen(a).(*ast.Ident); ok && fs[id.Name].kind == kindSIdx {
				params[i] = kindSIdx
			}
		}
		sc.analyzeFunc(fi, recvKind, params, depth+1)
		return
	}
	// Cross-package: summary checks.
	if sum == nil {
		return
	}
	if sum.writesGlobal {
		sc.report(call.Pos(), "call to %s from a Par stage: the callee may write package-level state", fn.FullName())
	}
	if sum.spawnsGo {
		sc.report(call.Pos(), "call to %s from a Par stage: the callee may spawn a goroutine", fn.FullName())
	}
	for j, k := range slots {
		if j >= len(sum.writesParam) {
			break
		}
		if sum.writesParam[j] && k == kindNone && pointerLikeExpr(pkg.Info, exprs[j]) {
			sc.report(call.Pos(), "call to %s may write through argument %s which this shard does not own", fn.FullName(), types.ExprString(exprs[j]))
		}
	}
}

// literalArg resolves an argument to a function literal, either written
// inline or bound to a local name.
func literalArg(e ast.Expr, fs shardFacts) *ast.FuncLit {
	switch e := unparen(e).(type) {
	case *ast.FuncLit:
		return e
	case *ast.Ident:
		return fs[e.Name].lit
	}
	return nil
}

func bindLitParams(lit *ast.FuncLit, argKinds []shardKind, entry shardFacts) {
	if lit.Type.Params == nil {
		return
	}
	i := 0
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			delete(entry, name.Name)
			if i < len(argKinds) && argKinds[i] != kindNone {
				entry[name.Name] = identFact{kind: argKinds[i]}
			}
			i++
		}
	}
}

// bindLitParamsKind marks every parameter of a callback literal with
// one kind: values an owned callee feeds to its callback (packets from
// this shard's own queues) are owned tokens.
func bindLitParamsKind(lit *ast.FuncLit, k shardKind, entry shardFacts) {
	if lit.Type.Params == nil {
		return
	}
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			entry[name.Name] = identFact{kind: k}
		}
	}
}

func pointerLikeExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return indirectType(tv.Type)
}
