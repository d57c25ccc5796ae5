package analysis

import "go/ast"

// Walltime keeps library code replayable: reading the wall clock
// (time.Now, time.Since) makes a run depend on the machine it ran on,
// which is only acceptable inside the telemetry layer itself
// (internal/obs) or at call sites that exist purely to feed it — the
// convention in this repo being a function that checks obs.Enabled()
// before measuring. Everything else in internal/ must be a pure
// function of its inputs and seeds. Taking time.Now as a function
// value counts as a read.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock reads outside internal/obs and obs.Enabled()-gated telemetry",
	Run:  runWalltime,
}

func runWalltime(p *Program) []Diagnostic {
	obsPath := p.ModulePath + "/internal/obs"
	return p.eachFile(func(pkg *Package, f *File) []Diagnostic {
		if !isInternalPkg(f) || f.Pkg == "internal/obs" {
			return nil
		}
		gated := obsGatedFuncs(pkg.Info, f, obsPath)
		var out []Diagnostic
		walkWithStack(f, func(n ast.Node, stack []ast.Node) {
			fn := funcRef(pkg.Info, n, stack)
			if fn == nil || fn.Pkg().Path() != "time" || (fn.Name() != "Now" && fn.Name() != "Since") {
				return
			}
			if fd := enclosingFuncDecl(stack); fd != nil && gated[fd] {
				return
			}
			out = append(out, f.Diag("walltime", n,
				"wall-clock time.%s outside internal/obs makes the run unreplayable; gate it behind obs.Enabled() or move it into the telemetry layer", fn.Name()))
		})
		return out
	})
}
