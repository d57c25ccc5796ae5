package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotAlloc proves the repo's 0 allocs/op hot paths statically. A
// function annotated with a
//
//	//pcnn:hotpath
//
// doc-comment line is a hot-path root: the analyzer walks the resolved
// call graph from every root (through interface dispatch, fanned out
// to all module implementations) and requires each reachable function
// body to be free of per-call allocation:
//
//   - make/new and slice, map, and &composite literals;
//   - append whose base is a function-local slice that never had a
//     backing array (growing append); appending to parameters, struct
//     fields, package variables, and reslices is the repo's recycled-
//     scratch idiom and allowed (the buffer's creation is what gets
//     flagged);
//   - closures that capture locals (the capture forces a heap
//     allocation; non-capturing literals are free);
//   - interface boxing: passing or assigning a non-pointer-shaped
//     concrete value where an interface is expected;
//   - string concatenation and string<->[]byte conversions;
//   - fmt and reflect calls, goroutine launches, and any call into a
//     package outside the proven-allocation-free set (math, math/bits,
//     sync, sync/atomic, runtime, and sort's non-Slice entry points);
//   - calls through plain function values, which the call graph
//     cannot follow.
//
// Two cold-path exemptions keep error handling out of the proof
// obligation: allocations inside a return statement that returns a
// non-nil error, and allocations inside panic arguments, are skipped —
// the steady-state alloc benchmarks never execute those paths either.
//
// A //lint:allow hotalloc directive on a reachable function's
// declaration line excludes that function (and everything only it
// calls) from the closure — the explicit, budget-counted escape for
// implementations that are out of the 0-alloc envelope (for example a
// Scorer that allocates per window). Roots themselves cannot be
// excluded; their findings are suppressed line by line or fixed.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "prove //pcnn:hotpath functions and their transitive callees allocation-free",
	Run:  runHotAlloc,
}

// hotpathMarker is the annotation naming a hot-path root.
const hotpathMarker = "pcnn:hotpath"

// isHotpathRoot reports whether fd's doc comment carries the marker.
func isHotpathRoot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == hotpathMarker || strings.HasPrefix(text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}

// declExcluded reports whether a //lint:allow hotalloc directive sits
// on (or directly above) fn's declaration line, the out-of-envelope
// escape hatch.
func declExcluded(fn *FuncNode) bool {
	line := fn.File.Fset.Position(fn.Decl.Pos()).Line
	for _, dir := range parseDirectives(fn.File).byLine[line] {
		if dir.analyzer == "hotalloc" {
			return true
		}
	}
	return false
}

func runHotAlloc(p *Program) []Diagnostic {
	g := p.CallGraph()

	var roots []*FuncNode
	for _, n := range g.Nodes() {
		if isHotpathRoot(n.Decl) {
			roots = append(roots, n)
		}
	}

	// BFS the closure from every root; the root that first reaches a
	// function is named in its diagnostics.
	type queued struct {
		node *FuncNode
		root *FuncNode
	}
	reached := map[*FuncNode]bool{}
	var order []queued
	queue := make([]queued, 0, len(roots))
	for _, r := range roots {
		queue = append(queue, queued{r, r})
	}
	var out []Diagnostic
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if reached[q.node] {
			continue
		}
		reached[q.node] = true
		if q.node != q.root && declExcluded(q.node) {
			// Emitted so the decl-line directive has something to
			// suppress (and is reported as unused once the exclusion
			// is no longer needed); descent stops here.
			out = append(out, q.node.File.Diag("hotalloc", q.node.Decl,
				"%s is reached from //pcnn:hotpath %s but excluded from the allocation proof by directive",
				funcDisplayName(q.node.Obj), funcDisplayName(q.root.Obj)))
			continue
		}
		order = append(order, q)
		for _, site := range q.node.Calls {
			for _, callee := range site.Callees {
				if !reached[callee] {
					queue = append(queue, queued{callee, q.root})
				}
			}
		}
	}

	for _, q := range order {
		out = append(out, checkAllocFree(q.node, q.root)...)
	}
	return out
}

// Packages whose exported call surface is known allocation-free. sync
// covers the pools and locks the scratch idiom rests on; Pool misses
// are amortized warm-up by design and proven cold by the steady-state
// alloc benchmarks.
var allocFreePkgs = map[string]bool{
	"":            true, // error.Error and other methods of unnamed types
	"math":        true,
	"math/bits":   true,
	"sync":        true,
	"sync/atomic": true,
	"runtime":     true,
	"unsafe":      true,
}

// checkAllocFree reports every per-call allocation in fn's body.
func checkAllocFree(fn, root *FuncNode) []Diagnostic {
	info := fn.Pkg.Info
	f := fn.File
	where := funcDisplayName(fn.Obj)
	if fn != root {
		where += " (hot path from //pcnn:hotpath " + funcDisplayName(root.Obj) + ")"
	}
	cold := coldRanges(fn)
	var out []Diagnostic
	diag := func(node ast.Node, format string, args ...any) {
		if cold.covers(node) {
			return
		}
		args = append(args, where)
		out = append(out, f.Diag("hotalloc", node, format+" in %s", args...))
	}

	// Call-site policy first (external packages, dynamic gaps).
	for _, site := range fn.Calls {
		switch {
		case site.Unresolved:
			diag(site.Call, "call through a function value cannot be proven allocation-free")
		case site.External != "":
			pkg, name := site.ExternalPkg, site.External
			switch {
			case pkg == "fmt" || pkg == "reflect":
				diag(site.Call, "%s allocates", name)
			case allocFreePkgs[pkg]:
				// Proven-free surface.
			case pkg == "sort" && !strings.Contains(name, "Slice"):
				// sort.Sort/Stable/Search/... operate in place; the
				// Slice variants build a reflect-based swapper.
			default:
				diag(site.Call, "call to %s is not provably allocation-free", name)
			}
		case site.Dynamic && len(site.Callees) == 0:
			diag(site.Call, "interface call has no module implementation to verify")
		}
	}

	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				// Conversion, not a call.
				if len(x.Args) == 1 && convAllocates(info.TypeOf(x), info.TypeOf(x.Args[0])) {
					diag(x, "conversion between string and byte/rune slice allocates")
				}
				return true
			}
			if id, okid := ast.Unparen(x.Fun).(*ast.Ident); okid {
				if b, okb := info.Uses[id].(*types.Builtin); okb {
					switch b.Name() {
					case "make":
						diag(x, "make allocates")
					case "new":
						diag(x, "new allocates")
					case "append":
						if len(x.Args) > 0 && !recycledBase(fn, x.Args[0]) {
							diag(x, "append to a slice with no reusable backing grows per call")
						}
					}
					return true
				}
			}
			for _, b := range boxedArgs(fn, x) {
				diag(b.expr, "boxing %s into interface %s allocates", b.from, b.to)
			}
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				diag(x, "slice literal allocates")
			case *types.Map:
				diag(x, "map literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, lit := ast.Unparen(x.X).(*ast.CompositeLit); lit {
					diag(x, "&composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			if capt := capturedVars(fn, x); len(capt) > 0 {
				diag(x, "closure capturing %s allocates", strings.Join(capt, ", "))
			}
		case *ast.GoStmt:
			diag(x, "go statement allocates a goroutine")
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(info.TypeOf(x)) {
				diag(x, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && isString(info.TypeOf(x.Lhs[0])) {
				diag(x, "string concatenation allocates")
			}
			for _, b := range boxedAssigns(fn, x) {
				diag(b.expr, "boxing %s into interface %s allocates", b.from, b.to)
			}
		}
		return true
	})
	return out
}

// coldSpans are source spans exempt from the allocation proof.
type coldSpans []struct{ pos, end token.Pos }

func (c coldSpans) covers(n ast.Node) bool {
	for _, s := range c {
		if n.Pos() >= s.pos && n.End() <= s.end {
			return true
		}
	}
	return false
}

// coldRanges collects fn's error-return statements and panic-call
// argument spans — paths the steady state never executes.
func coldRanges(fn *FuncNode) coldSpans {
	info := fn.Pkg.Info
	var out coldSpans
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok && id.Name == "nil" {
					continue
				}
				if t := info.TypeOf(res); t != nil && isErrorType(t) {
					out = append(out, struct{ pos, end token.Pos }{x.Pos(), x.End()})
					break
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" && len(x.Args) > 0 {
					out = append(out, struct{ pos, end token.Pos }{x.Args[0].Pos(), x.Args[len(x.Args)-1].End()})
				}
			}
		}
		return true
	})
	return out
}

// isErrorType reports the universe error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// convAllocates reports a string<->[]byte/[]rune conversion.
func convAllocates(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isString(src) && isByteOrRuneSlice(dst))
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// recycledBase reports whether an append base reuses existing backing:
// reslices, struct fields, indexed elements, parameters, package
// variables, and locals that were ever assigned from one of those (or
// from a make/call, whose allocation is reported at its own site). The
// growing case is a local slice that never had a backing array.
func recycledBase(fn *FuncNode, base ast.Expr) bool {
	info := fn.Pkg.Info
	switch x := ast.Unparen(base).(type) {
	case *ast.SliceExpr, *ast.SelectorExpr, *ast.IndexExpr, *ast.CallExpr, *ast.CompositeLit:
		return true
	case *ast.Ident:
		obj, ok := info.Uses[x].(*types.Var)
		if !ok {
			obj, ok = info.Defs[x].(*types.Var)
			if !ok {
				return false // nil, or not a variable
			}
		}
		if obj.IsField() || isParam(fn, obj) {
			return true
		}
		if obj.Parent() == fn.Pkg.Types.Scope() {
			return true // package-level scratch
		}
		return hasBackingOrigin(fn, obj)
	}
	return false
}

// isParam reports whether obj is one of fn's parameters, named
// results, or its receiver — caller-owned storage.
func isParam(fn *FuncNode, obj *types.Var) bool {
	sig, ok := fn.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() == obj {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i) == obj {
			return true
		}
	}
	return false
}

// hasBackingOrigin scans fn's body for an assignment that gives obj a
// backing array: any RHS other than a self-append. A bare
// `var s []T` + `s = append(s, ...)` has none and grows per call.
func hasBackingOrigin(fn *FuncNode, obj *types.Var) bool {
	info := fn.Pkg.Info
	found := false
	uses := func(id *ast.Ident) bool {
		return info.Defs[id] == obj || info.Uses[id] == obj
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
				// Multi-value assignment from a call: the call provides
				// backing for every LHS.
				for _, lhs := range x.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && uses(id) {
						found = true
					}
				}
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || !uses(id) || i >= len(x.Rhs) {
					continue
				}
				if !isSelfAppend(info, x.Rhs[i], obj) {
					found = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if info.Defs[name] == obj && i < len(x.Values) && !isSelfAppend(info, x.Values[i], obj) {
					found = true
				}
			}
		case *ast.RangeStmt:
			// Range value variables are backed by the ranged container.
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if id, ok := e.(*ast.Ident); ok && uses(id) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isSelfAppend reports rhs being append(obj, ...), the growing form
// that must not count as an origin.
func isSelfAppend(info *types.Info, rhs ast.Expr, obj *types.Var) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && (info.Uses[base] == obj || info.Defs[base] == obj)
}

// capturedVars lists variables of the enclosing function referenced
// inside lit — captures, which force the closure onto the heap.
func capturedVars(fn *FuncNode, lit *ast.FuncLit) []string {
	info := fn.Pkg.Info
	seen := map[string]bool{}
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj.Name()] {
			return true
		}
		// Captured: declared inside the enclosing declaration but
		// outside the literal.
		if obj.Pos() >= fn.Decl.Pos() && obj.Pos() < fn.Decl.End() &&
			(obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			seen[obj.Name()] = true
			out = append(out, obj.Name())
		}
		return true
	})
	sort.Strings(out)
	return out
}

// pointerShaped reports types whose interface representation stores
// the value directly in the data word — no heap allocation on boxing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// boxed is one interface-boxing site.
type boxed struct {
	expr     ast.Expr
	from, to string
}

// boxedArgs flags non-pointer-shaped concrete values passed where a
// parameter is an interface.
func boxedArgs(fn *FuncNode, call *ast.CallExpr) []boxed {
	info := fn.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() || tv.Type == nil {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil // builtin
	}
	var out []boxed
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				pt = sig.Params().At(np - 1).Type() // []T passed whole
			} else {
				pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if b, ok := boxes(fn, arg, pt); ok {
			out = append(out, b)
		}
	}
	return out
}

// boxedAssigns flags concrete-to-interface assignments.
func boxedAssigns(fn *FuncNode, as *ast.AssignStmt) []boxed {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	info := fn.Pkg.Info
	var out []boxed
	for i := range as.Lhs {
		if b, ok := boxes(fn, as.Rhs[i], info.TypeOf(as.Lhs[i])); ok {
			out = append(out, b)
		}
	}
	return out
}

// boxes reports whether storing expr into a target of type to requires
// heap-allocating an interface payload.
func boxes(fn *FuncNode, expr ast.Expr, to types.Type) (boxed, bool) {
	info := fn.Pkg.Info
	if to == nil || !types.IsInterface(to) {
		return boxed{}, false
	}
	at := info.TypeOf(expr)
	if at == nil || types.IsInterface(at) || pointerShaped(at) {
		return boxed{}, false
	}
	if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return boxed{}, false
	}
	qual := types.RelativeTo(fn.Pkg.Types)
	return boxed{expr: expr, from: types.TypeString(at, qual), to: types.TypeString(to, qual)}, true
}
