package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// GoLeak requires every go statement in a library package (internal/*)
// to have a visible join: some syntactic evidence in the launching
// function that the goroutine terminates and is waited for. Accepted
// evidence, checked with resolved objects so renamed or field-held
// handles still match:
//
//   - WaitGroup: the goroutine calls Done on a sync.WaitGroup and the
//     launching function calls Wait on the same one;
//   - channel join: the goroutine sends on or closes a channel the
//     launching function receives from (or ranges over), or
//     conversely the goroutine ranges over a channel the launcher
//     closes — bounded-producer/consumer shutdown;
//   - lifecycle handle: the launching function — including closures it
//     returns or defers — calls Close, Shutdown, Stop, or Wait on a
//     value the goroutine uses (the pattern obs.Serve uses: the
//     returned shutdown func closes the server the goroutine runs);
//   - context bound: the goroutine selects on ctx.Done() of a
//     context.Context.
//
// Goroutines in cmd/ main packages are exempt — a process exit is
// their join. The check is per launch site; a launcher with two
// goroutines needs evidence for each.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "require a visible join for every goroutine launched in library packages",
	Run:  runGoLeak,
}

func runGoLeak(p *Program) []Diagnostic {
	return p.eachFile(func(pkg *Package, f *File) []Diagnostic {
		if !isInternalPkg(f) {
			return nil
		}
		var out []Diagnostic
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !goroutineJoined(pkg.Info, fd, g) {
					out = append(out, f.Diag("goleak", g,
						"goroutine launched without a visible join (WaitGroup Wait, channel join, Close/Stop handle, or context bound)"))
				}
				return true
			})
		}
		return out
	})
}

// goroutineJoined looks for any accepted join evidence for one launch.
func goroutineJoined(info *types.Info, fd *ast.FuncDecl, g *ast.GoStmt) bool {
	// Keys of values the goroutine touches, and the channels it sends
	// on / closes / receives from.
	refs := map[string]bool{}
	var doneOn, sendsOn, receivesOn []string
	ctxBound := false

	ast.Inspect(g.Call, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if k := exprKey(info, x.X); k != "" {
				refs[k] = true
			}
			if x.Sel.Name == "Done" {
				if k := exprKey(info, x.X); k != "" && isWaitGroup(info.TypeOf(x.X)) {
					doneOn = append(doneOn, k)
				}
				if isContext(info.TypeOf(x.X)) {
					ctxBound = true
				}
			}
		case *ast.Ident:
			if k := exprKey(info, x); k != "" {
				refs[k] = true
			}
		case *ast.SendStmt:
			if k := exprKey(info, x.Chan); k != "" {
				sendsOn = append(sendsOn, k)
			}
		case *ast.UnaryExpr:
			if k := chanRecvKey(info, x); k != "" {
				receivesOn = append(receivesOn, k)
			}
		case *ast.RangeStmt:
			if isChan(info.TypeOf(x.X)) {
				if k := exprKey(info, x.X); k != "" {
					receivesOn = append(receivesOn, k)
				}
			}
		case *ast.CallExpr:
			if isBuiltinClose(info, x) {
				if k := exprKey(info, x.Args[0]); k != "" {
					sendsOn = append(sendsOn, k)
				}
			}
		}
		return true
	})
	if ctxBound {
		return true
	}

	// Scan the launching function outside the go statement (closures
	// included: a returned shutdown func is evidence).
	joined := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if joined || n == g.Call {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				k := exprKey(info, sel.X)
				switch sel.Sel.Name {
				case "Wait":
					for _, d := range doneOn {
						if d == k {
							joined = true
						}
					}
					if refs[k] && k != "" {
						joined = true // Wait on a handle the goroutine uses
					}
				case "Close", "Shutdown", "Stop":
					if refs[k] && k != "" {
						joined = true
					}
				}
			}
			if isBuiltinClose(info, x) {
				k := exprKey(info, x.Args[0])
				for _, r := range receivesOn {
					if r == k {
						joined = true // launcher closes the channel the goroutine drains
					}
				}
			}
		case *ast.UnaryExpr:
			if k := chanRecvKey(info, x); k != "" {
				for _, s := range sendsOn {
					if s == k {
						joined = true
					}
				}
			}
		case *ast.RangeStmt:
			if isChan(info.TypeOf(x.X)) {
				k := exprKey(info, x.X)
				for _, s := range sendsOn {
					if s == k {
						joined = true
					}
				}
			}
		}
		return !joined
	})
	return joined
}

// exprKey renders a variable or selector chain as a comparable key
// rooted at the object identity of its base identifier ("<obj>.wg" for
// d.wg), so the same storage matches across the launch and the join.
func exprKey(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if _, ok := obj.(*types.Var); !ok {
			return ""
		}
		return fmt.Sprintf("%p", obj)
	case *ast.SelectorExpr:
		base := exprKey(info, x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.UnaryExpr:
		return exprKey(info, x.X) // &x joins like x
	}
	return ""
}

// chanRecvKey returns the key of X in a receive expression <-X.
func chanRecvKey(info *types.Info, u *ast.UnaryExpr) string {
	if u.Op.String() != "<-" {
		return ""
	}
	if !isChan(info.TypeOf(u.X)) {
		return ""
	}
	return exprKey(info, u.X)
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isWaitGroup(t types.Type) bool {
	return namedIs(t, "sync", "WaitGroup")
}

func isContext(t types.Type) bool {
	return namedIs(t, "context", "Context")
}

// namedIs reports t (or *t) being the named type pkg.Name.
func namedIs(t types.Type, pkg, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}

// isBuiltinClose reports a call to the builtin close.
func isBuiltinClose(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}
