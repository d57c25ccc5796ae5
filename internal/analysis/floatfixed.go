package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// FloatFixed protects the bit-exactness of the fixed-point datapaths.
// internal/fixed models the FPGA's Q-format DSP arithmetic: every
// operation saturates in integer registers, and descriptors must be
// bit-compatible with the RTL. Introducing float64 arithmetic inside
// that package — or inside a file consuming it — silently reintroduces
// rounding behaviour the hardware does not have. Floats may only cross
// the boundary through Q.FromFloat / Q.ToFloat (and the documented
// float-modelled helpers below). Resolved types decide what is a
// float, so a float-returning method call counts and an integer
// constant from package math does not.
var FloatFixed = &Analyzer{
	Name: "floatfixed",
	Doc:  "forbid float arithmetic in fixed-point datapaths except at the Q.FromFloat/Q.ToFloat boundary",
	Run:  runFloatFixed,
}

// fixedBoundaryFuncs are the functions of internal/fixed that are
// allowed to perform float arithmetic, because they ARE the boundary:
//
//   - FromFloat / FromFloats / ToFloat / Eps / Quantize: the
//     Q<->float64 converters (FromFloats is FromFloat over a slice).
//   - Atan2Bin: the orientation unit, modelled in float with
//     math.Atan2 (documented at the definition).
var fixedBoundaryFuncs = map[string]bool{
	"FromFloat": true, "FromFloats": true, "ToFloat": true, "Eps": true,
	"Quantize": true, "Atan2Bin": true,
}

// boundaryMethods are the fixed.Q methods through which float
// expressions may legally feed the fixed-point world from consumer
// code: the argument of q.FromFloat(expr) or q.MulFloat(raw, expr) is
// quantized on entry, so arithmetic inside it happens before the
// datapath.
var boundaryMethods = map[string]bool{
	"FromFloat": true, "MulFloat": true, "Quantize": true,
}

func runFloatFixed(p *Program) []Diagnostic {
	fixedPath := p.ModulePath + "/internal/fixed"
	return p.eachFile(func(pkg *Package, f *File) []Diagnostic {
		inFixed := pkg.Path == fixedPath
		if !inFixed && !importsPath(f, fixedPath) {
			return nil
		}
		info := pkg.Info
		var out []Diagnostic
		walkWithStack(f, func(n ast.Node, stack []ast.Node) {
			fd := enclosingFuncDecl(stack)
			if fd == nil || inFixed && fixedBoundaryFuncs[fd.Name.Name] {
				return
			}
			var what string
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if !floatArith(info, e) {
					return
				}
				what = "float arithmetic"
			case *ast.AssignStmt:
				// A float-arith RHS reports on its own visit; do not
				// double-report the statement.
				if !isArithAssign(e.Tok) || !floatTyped(info, e.Lhs[0]) || floatArith(info, e.Rhs[0]) {
					return
				}
				what = "float compound assignment"
			default:
				return
			}
			if !floatArithSuppressed(info, fixedPath, stack) {
				out = append(out, f.Diag("floatfixed", n,
					"%s in fixed-point datapath; keep the computation in Q raw values or cross via Q.FromFloat/Q.ToFloat", what))
			}
		})
		return out
	})
}

// importsPath reports whether f imports the package at path.
func importsPath(f *File, path string) bool {
	for _, spec := range f.AST.Imports {
		if p, err := strconv.Unquote(spec.Path.Value); err == nil && p == path {
			return true
		}
	}
	return false
}

func isArithOp(op token.Token) bool {
	return op == token.ADD || op == token.SUB || op == token.MUL || op == token.QUO
}

func isArithAssign(tok token.Token) bool {
	return tok == token.ADD_ASSIGN || tok == token.SUB_ASSIGN || tok == token.MUL_ASSIGN || tok == token.QUO_ASSIGN
}

// floatTyped reports whether e has a float type; untyped float
// constants count.
func floatTyped(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && isFloat(t)
}

// floatArith reports a +, -, * or / with a float operand.
func floatArith(info *types.Info, e ast.Expr) bool {
	b, ok := ast.Unparen(e).(*ast.BinaryExpr)
	return ok && isArithOp(b.Op) && (floatTyped(info, b.X) || floatTyped(info, b.Y))
}

// floatArithSuppressed reports whether an ancestor already covers this
// expression: an enclosing float arithmetic BinaryExpr (report only
// the outermost) or an enclosing boundary call such as q.FromFloat(...)
// whose argument is quantized on entry.
func floatArithSuppressed(info *types.Info, fixedPath string, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.BinaryExpr:
			if floatArith(info, a) {
				return true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(a.Fun).(*ast.SelectorExpr); ok && boundaryMethods[sel.Sel.Name] && isQMethod(info, sel, fixedPath) {
				return true
			}
		case ast.Stmt:
			return false
		}
	}
	return false
}

// isQMethod reports whether sel selects a method of fixed.Q.
func isQMethod(info *types.Info, sel *ast.SelectorExpr, fixedPath string) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Q" && obj.Pkg() != nil && obj.Pkg().Path() == fixedPath
}
