package analysis

import "go/ast"

// ObsGate protects hot loops from telemetry overhead: the obs layer is
// lock-cheap but not free, so a publish (obs.CounterM(...).Inc() and
// friends) inside a per-tick / per-pixel / per-window loop must sit
// behind an obs.Enabled() check — either directly or by living in a
// function that establishes the gate (the repo's coarse-boundary
// idiom: measure into locals, publish once per run/epoch/level).
// A function containing no Enabled() check at all that publishes from
// inside a loop is the bug this catches.
var ObsGate = &Analyzer{
	Name: "obsgate",
	Doc:  "require obs.Enabled() gating for telemetry publishes inside loops",
	Run:  runObsGate,
}

func runObsGate(p *Program) []Diagnostic {
	obsPath := p.ModulePath + "/internal/obs"
	return p.eachFile(func(pkg *Package, f *File) []Diagnostic {
		if !isInternalPkg(f) || f.Pkg == "internal/obs" {
			return nil
		}
		gated := obsGatedFuncs(pkg.Info, f, obsPath)
		var out []Diagnostic
		walkWithStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !insideLoop(stack) {
				return
			}
			fn := funcOf(pkg.Info, call.Fun)
			if fn == nil || fn.Pkg().Path() != obsPath || fn.Name() == "Enabled" {
				return
			}
			if fd := enclosingFuncDecl(stack); fd != nil && gated[fd] {
				return
			}
			out = append(out, f.Diag("obsgate", call,
				"obs.%s publish inside a loop without any obs.Enabled() gate in the function; check Enabled() or publish once at a coarse boundary", fn.Name()))
		})
		return out
	})
}
