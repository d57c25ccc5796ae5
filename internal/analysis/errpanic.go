package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrPanic enforces the error-return convention in library packages:
// a panic that escapes a library API crashes the whole pipeline run
// instead of failing one stage with context. Binaries (package main
// under cmd/ and examples/) may panic; libraries must return errors.
// Construction-time invariants for which an error return is
// structurally impossible (interface-constrained signatures,
// gonum-style shape checks in hot paths) are annotated explicitly with
// //lint:allow errpanic <reason>, which keeps every remaining panic a
// reviewed, justified decision.
var ErrPanic = &Analyzer{
	Name: "errpanic",
	Doc:  "forbid panic in library packages where error returns are the convention",
	Run:  runErrPanic,
}

func runErrPanic(p *Program) []Diagnostic {
	return p.eachFile(func(pkg *Package, f *File) []Diagnostic {
		if pkg.Types.Name() == "main" || strings.HasPrefix(f.Pkg, "cmd/") || strings.HasPrefix(f.Pkg, "examples/") {
			return nil
		}
		var out []Diagnostic
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Only the builtin counts: a local function named panic
			// shadows it.
			if id, ok := call.Fun.(*ast.Ident); ok {
				if _, builtin := pkg.Info.Uses[id].(*types.Builtin); builtin && id.Name == "panic" {
					out = append(out, f.Diag("errpanic", call,
						"panic in library package %s; return an error (or annotate a construction invariant with //lint:allow errpanic <reason>)", f.Pkg))
				}
			}
			return true
		})
		return out
	})
}
