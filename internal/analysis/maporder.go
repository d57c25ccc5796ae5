package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder guards the repo's bit-reproducibility claim against Go's
// randomized map iteration order. Ranging over a map is fine on its
// own; what the analyzer flags is order-sensitive work inside the loop
// body:
//
//   - appending to a slice declared outside the loop, unless a
//     statement after the loop sorts that slice (the collect-then-sort
//     idiom used throughout the repo is the sanctioned form);
//   - accumulating into a float declared outside the loop — float
//     addition does not commute under rounding, so the sum depends on
//     iteration order and no post-hoc sort can fix it;
//   - writing output (fmt calls or Write* methods) inside the body,
//     which serializes the random order directly.
//
// The analyzer is type-aware: only ranges whose operand is map-typed
// are considered, and the append/accumulate targets are resolved to
// their declaring objects so shadowing cannot fool it.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive work inside range-over-map loops",
	Run:  runMapOrder,
}

func runMapOrder(p *Program) []Diagnostic {
	return p.eachFile(func(pkg *Package, f *File) []Diagnostic {
		var out []Diagnostic
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, mapOrderInFunc(f, pkg.Info, fd)...)
		}
		return out
	})
}

func mapOrderInFunc(f *File, info *types.Info, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		out = append(out, mapRangeHazards(f, info, fd, rng)...)
		return true
	})
	return out
}

// mapRangeHazards checks one range-over-map body.
func mapRangeHazards(f *File, info *types.Info, fd *ast.FuncDecl, rng *ast.RangeStmt) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				obj := assignTarget(info, lhs)
				if obj == nil || declaredInside(obj, rng) {
					continue
				}
				switch {
				case x.Tok == token.ADD_ASSIGN || x.Tok == token.SUB_ASSIGN:
					if isFloat(obj.Type()) {
						out = append(out, f.Diag("maporder", x,
							"float accumulation into %s across map iteration is order-dependent", obj.Name()))
					}
				case x.Tok == token.ASSIGN && i < len(x.Rhs):
					if isSelfAppend(info, x.Rhs[i], obj) {
						if !sortedAfter(info, fd, rng, obj) {
							out = append(out, f.Diag("maporder", x,
								"append to %s during map iteration yields nondeterministic order (sort it before use)", obj.Name()))
						}
					} else if isFloat(obj.Type()) && selfBinaryAdd(info, x.Rhs[i], obj) {
						out = append(out, f.Diag("maporder", x,
							"float accumulation into %s across map iteration is order-dependent", obj.Name()))
					}
				}
			}
		case *ast.CallExpr:
			if writesOutput(info, x) {
				out = append(out, f.Diag("maporder", x,
					"output written during map iteration follows nondeterministic order"))
			}
		}
		return true
	})
	return out
}

// assignTarget resolves an assignment LHS to its variable object
// (plain identifiers only; indexed and field stores are per-key and
// order-insensitive).
func assignTarget(info *types.Info, lhs ast.Expr) *types.Var {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	obj, _ := info.Uses[id].(*types.Var)
	if obj == nil {
		obj, _ = info.Defs[id].(*types.Var)
	}
	return obj
}

// declaredInside reports whether obj's declaration sits inside the
// range statement (per-iteration state is order-safe).
func declaredInside(obj *types.Var, rng *ast.RangeStmt) bool {
	return obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// selfBinaryAdd reports rhs of the form obj + ... or ... + obj.
func selfBinaryAdd(info *types.Info, rhs ast.Expr, obj *types.Var) bool {
	bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
		return false
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if id, ok := ast.Unparen(side).(*ast.Ident); ok && info.Uses[id] == obj {
			return true
		}
	}
	return false
}

// sortedAfter reports whether a statement after the loop passes obj to
// a sort.* or slices.* call — the collect-then-sort idiom.
func sortedAfter(info *types.Info, fd *ast.FuncDecl, rng *ast.RangeStmt, obj *types.Var) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		if path := pn.Imported().Path(); path != "sort" && path != "slices" {
			return true
		}
		// The sorted value may appear anywhere in the arguments,
		// including wrapped in a sort.Interface conversion.
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// writesOutput reports fmt calls and Write*/Print* method calls.
func writesOutput(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkgID, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if pn, ok := info.Uses[pkgID].(*types.PkgName); ok {
			return pn.Imported().Path() == "fmt"
		}
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Printf", "Print", "Println", "Fprintf":
		return true
	}
	return false
}
