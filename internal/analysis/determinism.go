package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MarkBarrier annotates a clamping helper (noc.ClampUint64): floatConv
// exempts the float-to-integer conversions inside its body, since
// pinning the operand into range first is exactly what it is for.
const MarkBarrier = "//ssvc:barrier"

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the process-global source. Seeded generators
// built with New/NewSource/NewPCG are fine: they are pure functions of
// the seed, which is exactly what the repository's reproducibility
// contract requires (see internal/traffic.RNG and runner.DeriveSeed).
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"N": true, "Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

// timerFuncs are the time-package functions that schedule work against
// the wall clock. In simulation code any deadline — a lease expiry, a
// snapshot cadence, a retry backoff — must fire at a simulated cycle
// derived from the command that created it, or replaying a journal
// cannot reproduce the run.
var timerFuncs = map[string]bool{
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// trigFuncs are the math package's trigonometric and hyperbolic
// functions; see transcendental.
var trigFuncs = map[string]bool{
	"Sin": true, "Cos": true, "Tan": true, "Sincos": true,
	"Asin": true, "Acos": true, "Atan": true, "Atan2": true,
	"Sinh": true, "Cosh": true, "Tanh": true,
	"Asinh": true, "Acosh": true, "Atanh": true,
}

// transcendental reports the math functions IEEE 754 does not pin to
// the last bit (math.Log*, Exp*, Pow and the trigonometric family):
// amd64 runs some of them in assembly and other architectures in pure
// Go, so a golden table built on one could differ on another. Sqrt,
// Floor and the other exactly rounded functions stay allowed.
func transcendental(name string) bool {
	return strings.HasPrefix(name, "Log") || strings.HasPrefix(name, "Exp") || name == "Pow" || trigFuncs[name]
}

// determinism flags the three sources of run-to-run nondeterminism that
// would break byte-identical golden tables: wall-clock time, the global
// math/rand source, and iteration over maps.
func determinism(p *pass, pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkForbiddenSelector(p, pkg, n)
			case *ast.RangeStmt:
				if tv, ok := pkg.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						p.report(n.Pos(), "range over a map iterates in nondeterministic order; collect and sort the keys (or prove the loop body is order-independent and allowlist this site)")
					}
				}
			}
			return true
		})
	}
}

// checkForbiddenSelector reports pkgname.Func selections that resolve
// to time.Now (and friends), a transcendental math function, or a
// global math/rand function.
func checkForbiddenSelector(p *pass, pkg *Package, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	path, name := pn.Imported().Path(), sel.Sel.Name
	switch {
	case path == "time" && (name == "Now" || name == "Since" || name == "Until"):
		p.report(sel.Pos(), "time.%s makes results depend on wall-clock time; derive everything from the simulated cycle count", name)
	case path == "time" && timerFuncs[name]:
		p.report(sel.Pos(), "time.%s schedules against the wall clock; expirations (leases, deadlines, cadences) must fire at deterministic simulated cycles so journal replay reproduces them", name)
	case path == "math" && transcendental(name):
		p.report(sel.Pos(), "math.%s may round differently on another GOARCH; golden tables must be byte-identical on every architecture, so use exact arithmetic", name)
	case (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[name]:
		p.report(sel.Pos(), "global %s.%s draws from a process-wide source; use a traffic.RNG (or rand.New) seeded from Options.Seed", path, name)
	}
}

// floatConv flags every non-constant float-to-integer conversion outside
// a //ssvc:barrier function. The Go spec leaves the result of an
// out-of-range conversion (NaN and Inf included) to the implementation,
// so two architectures can disagree on it: a rate or share that crosses
// into the fixed-point Frame and Vtick domains goes through a clamp such
// as noc.ClampUint64 instead. A barrier's function literals are inside
// the clamp; a literal anywhere else is checked like any other code.
func floatConv(p *pass, pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hasMarker(fd.Doc, MarkBarrier) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				dst, arg := pkg.Info.Types[call.Fun], pkg.Info.Types[call.Args[0]]
				if !dst.IsType() || !isInteger(dst.Type) || arg.Value != nil || arg.Type == nil {
					return true
				}
				if b, ok := arg.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
					p.report(call.Pos(), "unchecked %s conversion of a float: out-of-range values (including NaN and Inf) convert platform-dependently; clamp through a %s helper such as noc.ClampUint64",
						dst.Type, MarkBarrier)
				}
				return true
			})
		}
	}
}
