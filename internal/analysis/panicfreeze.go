package analysis

import (
	"go/ast"
	"go/types"
)

// panicFreeze flags panic calls in the engine, fabric, and experiment
// packages. Since PR 3 the engines freeze sick through
// fabric.ErrorReporter — an invariant violation records an error, Step
// becomes a no-op, and the experiments layer surfaces it as
// Outcome.Err — so a panic anywhere on these paths would kill a whole
// sweep pool instead of one sweep point. The few justified panics
// (internal/stats constructor preconditions, the runner's deliberate
// worker-panic re-raise) carry //ssvc:allow markers.
func panicFreeze(p *pass, pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true // a local function shadowing the builtin
			}
			p.report(call.Pos(), "panic on an engine/experiment path; freeze sick instead (engine fail(...) + fabric.ErrorReporter, surfaced through Outcome.Err)")
			return true
		})
	}
}
