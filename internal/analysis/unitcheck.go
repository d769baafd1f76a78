package analysis

import (
	"go/ast"
	"go/types"
)

// units enforces the time-unit discipline of internal/noc: noc.Cycle
// (real-time switch clock) and noc.VTime (virtual-clock/auxVC domain)
// may only cross into each other or into raw integers through the named
// helpers — CycleOf, VTimeOf, VTimeOfCycle, CycleOfVTime, and the Uint
// methods — so `grep VTimeOfCycle` lists every real-to-virtual seam
// (Virtual Clock step 1, the paper's §3.1 hazard).
//
// The compiler already rejects mixed arithmetic between the two named
// types; the remaining escape hatch is a plain conversion, so that is
// what this analyzer polices: any T(x) where T or x's type is one of
// the unit types is a finding, with two exceptions:
//
//   - constant operands (noc.Cycle(0), noc.VTime(math.MaxUint64)):
//     a constant carries no domain yet, and the compiler checks its
//     representability;
//   - identity conversions (same unit type on both sides).
//
// internal/noc itself — where the helpers live — is excluded by
// unitsPackages.
func units(p *pass, pkg *Package) {
	nocPath := p.l.Module + "/internal/noc"
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := pkg.Info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			dst := tv.Type
			src := exprType(pkg, call.Args[0])
			if src == nil {
				return true
			}
			dstUnit, dstOK := unitTypeName(dst, nocPath)
			srcUnit, srcOK := unitTypeName(src, nocPath)
			if !dstOK && !srcOK {
				return true
			}
			if dstOK && srcOK && dstUnit == srcUnit {
				return true // identity conversion, no domain change
			}
			if constVal(pkg, call.Args[0]) != nil {
				return true // constants may enter a domain directly
			}
			switch {
			case dstOK && srcOK:
				helper := "noc.VTimeOfCycle"
				if dstUnit == "Cycle" {
					helper = "noc.CycleOfVTime"
				}
				p.report(call.Pos(), "conversion %s crosses time domains %s -> %s; cross through %s so the seam stays grep-able",
					types.ExprString(call), srcUnit, dstUnit, helper)
			case dstOK:
				p.report(call.Pos(), "conversion %s smuggles a raw value into the %s domain; enter through noc.%sOf",
					types.ExprString(call), dstUnit, dstUnit)
			default:
				p.report(call.Pos(), "conversion %s strips the %s unit; leave the domain through its Uint method",
					types.ExprString(call), srcUnit)
			}
			return true
		})
	}
}

// unitTypeName reports whether t is one of the unit types defined in
// internal/noc (resolving aliases such as core.Cycle and the root
// package's swizzleqos.Cycle), returning its name.
func unitTypeName(t types.Type, nocPath string) (string, bool) {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != nocPath {
		return "", false
	}
	name := obj.Name()
	if name == "Cycle" || name == "VTime" {
		return name, true
	}
	return "", false
}
