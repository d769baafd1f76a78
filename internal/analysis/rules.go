package analysis

// This file is the rule table and the single place naming which
// packages each invariant covers. Paths are module-relative. DESIGN.md
// ("Invariants") documents the rules themselves; //ssvc:allow markers
// at their sites carry the justified exceptions.

// Rule is one invariant: the name its diagnostics carry, the packages it
// covers, and exactly one of three bodies.
type Rule struct {
	Name     string
	Packages func(l *Loader) ([]string, error)

	// perPackage checks one type-checked package on its own: what it
	// finds cannot depend on any other package, so RunAll fans these out
	// a package at a time.
	perPackage func(p *pass, pkg *Package)
	// tree is interprocedural: p.cg indexes every package the loader has
	// type-checked, and findings are reported for pkgs only.
	tree func(p *pass, pkgs []*Package)
	// raw runs without type information, on a loader of its own.
	raw func(l *Loader, rels []string) ([]Diagnostic, error)
}

// Rules is every invariant ssvc-lint enforces. Hotpath is first so that
// its external compile is already running while the rest are checked.
var Rules = []Rule{
	{Name: "hotpath", Packages: modulePackageRels, raw: hotpath},
	{Name: "determinism", Packages: fixed(DeterminismPackages), perPackage: determinism},
	{Name: "panicfreeze", Packages: fixed(PanicFreezePackages), perPackage: panicFreeze},
	{Name: "countersafety", Packages: modulePackageRels, perPackage: counterSafety},
	{Name: "units", Packages: unitsPackages, perPackage: units},
	{Name: "durability", Packages: fixed(DurabilityPackages), tree: durability},
	{Name: "floatconv", Packages: fixed(FloatConvPackages), perPackage: floatConv},
	{Name: "marker", Packages: modulePackageRels, perPackage: unknownMarkers},
}

func fixed(rels []string) func(*Loader) ([]string, error) {
	return func(*Loader) ([]string, error) { return rels, nil }
}

// DeterminismPackages feed golden tables (directly, or as the kernels
// and generators under them). Byte-identical output at any worker count
// is the reproducibility contract, so these may not read wall-clock
// time, the global math/rand source, or iterate maps without imposing
// an order, and must not call math functions whose last bit depends on
// the architecture.
var DeterminismPackages = []string{
	"internal/switchsim",
	"internal/mesh",
	"internal/compose",
	"internal/core",
	"internal/experiments",
	"internal/fabric",
	"internal/faults",
	"internal/traffic",
	"internal/stats",
	// The planner and the library's constructors return errors that
	// name an output; with several bad outputs the name must not depend
	// on map order. "." is the module root, the library itself.
	"internal/alloc",
	".",
	// The control plane journals commands with simulated-cycle stamps
	// and replays them bit-for-bit; wall-clock time anywhere in its
	// lease-expiry or snapshot paths (time.Now, but also timers like
	// time.Sleep/After) would make recovery diverge from the live run.
	"internal/ctlplane",
	// The crossbar's reference model: the engine is held to it cycle by
	// cycle, so it must be as byte-deterministic as the engine.
	"internal/spec",
}

// PanicFreezePackages must freeze sick through fabric.ErrorReporter /
// Outcome.Err instead of panicking: the engines and everything between
// them and a rendered table. Constructor preconditions in leaf
// packages (arb, traffic, core, circuit) stay panics by API contract
// and are not in this set; the stats constructors and the runner's
// worker-panic re-raise are in the set but excused by markers.
var PanicFreezePackages = []string{
	"internal/fabric",
	"internal/switchsim",
	"internal/mesh",
	"internal/compose",
	"internal/experiments",
	"internal/faults",
	"internal/stats",
	"internal/runner",
}

// DurabilityPackages carry the crash-safety contract: the control plane
// (one acknowledgement writer, single-owner lease heap) and the daemon
// that spawns goroutines around it.
var DurabilityPackages = []string{
	"internal/ctlplane",
	"cmd/ssvc-serve",
}

// FloatConvPackages turn reserved rates and shares into fixed-point
// Frame units and Vticks (ctlplane, noc, alloc, glbound, core, arb),
// or parse the line protocol's numbers (the daemon): a float that
// crosses into an integer there must be clamped first.
var FloatConvPackages = []string{
	"internal/ctlplane",
	"cmd/ssvc-serve",
	"internal/glbound",
	"internal/core",
	"internal/arb",
	"internal/noc",
	"internal/alloc",
}

// unitsPackages is the whole module except internal/noc, the one place
// allowed to convert between the Cycle/VTime unit types and raw
// integers (it defines the conversion helpers).
func unitsPackages(l *Loader) ([]string, error) {
	rels, err := modulePackageRels(l)
	if err != nil {
		return nil, err
	}
	out := rels[:0]
	for _, rel := range rels {
		if rel != "internal/noc" {
			out = append(out, rel)
		}
	}
	return out, nil
}

// modulePackageRels lists every package directory of the module as a
// module-relative path ("" for the root package). The whole module is
// where //ssvc:hotpath annotations are looked for, and where unsigned
// counters can wrap, narrow or over-shift: the saturating helpers in
// internal/noc pass countersafety on their own merits (their bodies
// carry the guards it looks for).
func modulePackageRels(l *Loader) ([]string, error) {
	ips, err := l.ModulePackages()
	if err != nil {
		return nil, err
	}
	rels := make([]string, 0, len(ips))
	for _, ip := range ips {
		rel := ""
		if ip != l.Module {
			rel = ip[len(l.Module)+1:]
		}
		rels = append(rels, rel)
	}
	return rels, nil
}
