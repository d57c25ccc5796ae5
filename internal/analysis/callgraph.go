package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Resolved whole-program call graph. Nodes are the functions and
// methods declared in module packages; edges come from three kinds of
// call sites:
//
//   - static: the callee resolves to a declared function or a method
//     on a concrete type (including qualified pkg.Fn calls);
//   - dynamic: the callee is an interface method. The edge fans out to
//     every module-declared concrete type that implements the
//     interface (class-hierarchy analysis) — the stdlib-only stand-in
//     for points-to analysis, sound for this repo because all hot-path
//     interface values are built from module types;
//   - external: the callee lives outside the module (stdlib). The body
//     is not available, so analyzers apply a per-package policy
//     instead of traversing.
//
// Function literals are folded into their enclosing declared function:
// a call inside a closure is attributed to the function that created
// the closure, which over-approximates reachability (the closure might
// never run) — the right direction for proof-style analyzers.

// FuncNode is one declared function or method in the module.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	File *File
	Pkg  *Package
	// Calls are the resolved call sites in the body, in source order.
	Calls []CallSite
}

// CallSite is one call expression inside a FuncNode's body.
type CallSite struct {
	// Call is the call expression (diagnostic anchor).
	Call *ast.CallExpr
	// Callees are the module-declared functions this site can reach:
	// one for a static call, all implementations for a dynamic call,
	// empty for external and unresolvable callees.
	Callees []*FuncNode
	// Dynamic marks an interface-method dispatch (Callees via CHA).
	Dynamic bool
	// External names a callee outside the module as "path.Name"
	// (e.g. "fmt.Errorf", "(sync/atomic.Uint64).Add"); empty for
	// module-internal and unresolvable calls.
	External string
	// ExternalPkg is the import path of the external callee's package.
	ExternalPkg string
	// Unresolved marks a call through a plain function value (neither
	// a declared function nor an interface method), which the graph
	// cannot follow.
	Unresolved bool
}

// CallGraph indexes FuncNodes by their types.Func object.
type CallGraph struct {
	prog  *Program
	nodes map[*types.Func]*FuncNode
}

// Node returns the graph node for obj, or nil for functions not
// declared in the module.
func (g *CallGraph) Node(obj *types.Func) *FuncNode { return g.nodes[obj] }

// Nodes returns every declared function, sorted by position for
// deterministic iteration.
func (g *CallGraph) Nodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := g.prog.Fset.Position(out[i].Decl.Pos()), g.prog.Fset.Position(out[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return out
}

// CallGraph builds (once) and returns the program's call graph.
func (p *Program) CallGraph() *CallGraph {
	if p.cg != nil {
		return p.cg
	}
	g := &CallGraph{prog: p, nodes: map[*types.Func]*FuncNode{}}

	// Pass 1: index every declared function.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.TypedFiles() {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[obj] = &FuncNode{Obj: obj, Decl: fd, File: f, Pkg: pkg}
			}
		}
	}

	// Pass 2: resolve call sites.
	for _, node := range g.nodes {
		n := node
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if site, ok := g.resolveCall(n.Pkg, call); ok {
				n.Calls = append(n.Calls, site)
			}
			return true
		})
	}
	p.cg = g
	return g
}

// resolveCall classifies one call expression. Conversions and builtin
// calls return ok=false (they are not call-graph edges; analyzers see
// them directly in the AST).
func (g *CallGraph) resolveCall(pkg *Package, call *ast.CallExpr) (CallSite, bool) {
	info := pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return g.siteFor(call, obj, false), true
		case *types.Builtin, *types.TypeName, nil:
			return CallSite{}, false
		case *types.Var:
			// Call through a function-typed variable or parameter.
			return CallSite{Call: call, Unresolved: true}, true
		}
		return CallSite{}, false
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj, ok := sel.Obj().(*types.Func)
			if !ok {
				// Function-typed struct field.
				return CallSite{Call: call, Unresolved: true}, true
			}
			if types.IsInterface(recvOf(obj)) {
				return g.chaSite(call, obj), true
			}
			return g.siteFor(call, obj, false), true
		}
		// Qualified identifier pkg.Fn, or a type conversion pkg.T(x).
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return g.siteFor(call, obj, false), true
		default:
			return CallSite{}, false
		}
	default:
		// Call of a function literal, an index expression, a call
		// result, ... FuncLit bodies are walked inline by Inspect, so
		// an immediately-invoked literal needs no edge; everything
		// else is unresolvable.
		if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
			return CallSite{}, false
		}
		return CallSite{Call: call, Unresolved: true}, true
	}
}

// siteFor builds the CallSite for a resolved concrete callee.
func (g *CallGraph) siteFor(call *ast.CallExpr, obj *types.Func, dynamic bool) CallSite {
	if n, ok := g.nodes[obj]; ok {
		return CallSite{Call: call, Callees: []*FuncNode{n}, Dynamic: dynamic}
	}
	return CallSite{Call: call, External: externalName(obj), ExternalPkg: externalPkgPath(obj), Dynamic: dynamic}
}

// chaSite fans an interface-method call out to every module type
// implementing the interface (class-hierarchy analysis).
func (g *CallGraph) chaSite(call *ast.CallExpr, method *types.Func) CallSite {
	iface, _ := recvOf(method).Underlying().(*types.Interface)
	site := CallSite{Call: call, Dynamic: true}
	if iface == nil {
		return site
	}
	seen := map[*FuncNode]bool{}
	for _, pkg := range g.prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for _, t := range []types.Type{named, types.NewPointer(named)} {
				if types.IsInterface(t) || !types.Implements(t, iface) {
					continue
				}
				impl := implMethod(t, method.Pkg(), method.Name())
				if impl == nil {
					continue
				}
				if n, ok := g.nodes[impl]; ok && !seen[n] {
					seen[n] = true
					site.Callees = append(site.Callees, n)
				}
				break // T covered; *T would find the same declared method
			}
		}
	}
	sort.Slice(site.Callees, func(i, j int) bool {
		return site.Callees[i].Obj.FullName() < site.Callees[j].Obj.FullName()
	})
	return site
}

// implMethod finds t's declared method with the given name, peeling
// embedding via LookupFieldOrMethod. pkg is the interface method's
// package: lookup needs it to see unexported methods (visibility is
// package-scoped for lower-case names).
func implMethod(t types.Type, pkg *types.Package, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	fn, _ := obj.(*types.Func)
	return fn
}

// recvOf returns the receiver type of a method (nil receiver types
// never occur for *types.Func with a signature receiver).
func recvOf(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return types.Typ[types.Invalid]
	}
	return sig.Recv().Type()
}

// externalName renders a callee outside the module as "pkg.Name" or
// "(pkg.Recv).Name" for methods.
func externalName(fn *types.Func) string {
	return shortenPkgPaths(fn.FullName())
}

// externalPkgPath returns the import path of fn's package; methods on
// types from another package report that package. Builtins under the
// pseudo-package "unsafe" and error.Error report "" and are treated as
// allocation-free primitives.
func externalPkgPath(fn *types.Func) string {
	if p := fn.Pkg(); p != nil {
		return p.Path()
	}
	// Methods of unnamed interface types (error.Error) carry no
	// package.
	if recv := recvOf(fn); recv != nil {
		if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path()
		}
	}
	return ""
}

// funcDisplayName renders a module function compactly for diagnostics:
// "detect.(*Detector).scoreRun" or "hog.applyNorm".
func funcDisplayName(fn *types.Func) string {
	full := fn.FullName() // e.g. "(*repro/internal/detect.Detector).scoreRun" or "repro/internal/hog.applyNorm"
	return shortenPkgPaths(full)
}

// shortenPkgPaths rewrites every "a/b/c.Sym" import-path qualifier in
// s to its base package name "c.Sym" (module and stdlib paths contain
// no dots, so the final path element is unambiguous).
func shortenPkgPaths(s string) string {
	out := make([]byte, 0, len(s))
	word := 0 // start of the current path token within out
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '/':
			// A slash means everything since the token start was a
			// leading path element: drop it.
			out = out[:word]
		case '(', ')', ' ', '*', '[', ']', '.':
			out = append(out, c)
			word = len(out)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
