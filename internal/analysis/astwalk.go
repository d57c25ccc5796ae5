package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AST helpers shared by the analyzers. Names resolve through the
// package's type information, never by spelling: a parameter named
// rand is the parameter, a dot-imported Intn is math/rand.Intn, and a
// method that happens to share a package function's name is neither.

// eachFile runs check over every typed (non-test) file of the program
// and concatenates the findings.
func (p *Program) eachFile(check func(pkg *Package, f *File) []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.TypedFiles() {
			out = append(out, check(pkg, f)...)
		}
	}
	return out
}

// funcOf returns the package-level function expr names, spelled pkg.Name
// or as a bare identifier (same package or dot import), or nil when
// expr names anything else: a method, a variable, a builtin, a type.
func funcOf(info *types.Info, expr ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// funcRef returns the package-level function n refers to when n is a
// whole reference to one — a selector, or an identifier that is not a
// selector's Sel — so that each reference is seen once; else nil.
// stack holds n's ancestors, as walkWithStack passes them.
func funcRef(info *types.Info, n ast.Node, stack []ast.Node) *types.Func {
	switch x := n.(type) {
	case *ast.SelectorExpr:
		return funcOf(info, x)
	case *ast.Ident:
		if len(stack) > 0 {
			if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.Sel == x {
				return nil
			}
		}
		return funcOf(info, x)
	}
	return nil
}

// obsGatedFuncs returns the top-level functions of f that call
// obs.Enabled() anywhere. Such a function is a telemetry boundary: its
// clock reads and publishes exist to be published, and the Enabled()
// check is what keeps them off the replayed path.
func obsGatedFuncs(info *types.Info, f *File, obsPath string) map[*ast.FuncDecl]bool {
	gated := map[*ast.FuncDecl]bool{}
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := funcOf(info, call.Fun); fn != nil && fn.Pkg().Path() == obsPath && fn.Name() == "Enabled" {
					gated[fd] = true
				}
			}
			return !gated[fd]
		})
	}
	return gated
}

// walkWithStack traverses f.AST invoking visit with each node and the
// stack of its ancestors (outermost first, not including n itself).
func walkWithStack(f *File, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// enclosingFuncDecl returns the top-level function declaration in the
// ancestor stack, or nil for package-level positions.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// insideLoop reports whether the ancestor stack crosses a for/range
// statement after the innermost function declaration or literal (a
// loop in an enclosing function does not make a callee's body "inside
// a loop"; function literals defined inside a loop do count, since
// they run on the loop's iterations).
func insideLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl:
			return false
		}
	}
	return false
}

// isInternalPkg reports whether the file's package sits under
// internal/ (the library tree; cmd/ and examples/ are drivers).
func isInternalPkg(f *File) bool {
	return f.Pkg == "internal" || strings.HasPrefix(f.Pkg, "internal/")
}
