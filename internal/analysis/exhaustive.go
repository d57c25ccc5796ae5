package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Exhaustive checks switches over the repo's enum-like types: a
// defined module type with a basic (integer or string) underlying type
// and at least two package-level constants of exactly that type
// (Engine, ResetMode, VotingMode, Paradigm, ...). A switch on such a
// type must either cover every member or carry an explicit default —
// the failure mode being guarded is adding an enum member (a new
// engine, a new norm scheme) and silently falling through a switch
// written when the member set was smaller.
//
// Constant values, not names, decide coverage, so aliased members
// count. Type switches are out of scope, as are switches over
// non-module or non-basic types.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc:  "require switches over enum-like const sets to cover all members or declare a default",
	Run:  runExhaustive,
}

func runExhaustive(p *Program) []Diagnostic {
	return p.eachFile(func(pkg *Package, f *File) []Diagnostic {
		var out []Diagnostic
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			out = append(out, checkSwitch(p, f, pkg.Info, sw)...)
			return true
		})
		return out
	})
}

func checkSwitch(p *Program, f *File, info *types.Info, sw *ast.SwitchStmt) []Diagnostic {
	named, ok := info.TypeOf(sw.Tag).(*types.Named)
	if !ok {
		return nil
	}
	members := enumMembers(p, named)
	if len(members) < 2 {
		return nil
	}

	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return nil // explicit default satisfies the check
		}
		for _, e := range cc.List {
			if tv, ok := info.Types[e]; ok && tv.Value != nil {
				covered[tv.Value.ExactString()] = true
			}
		}
	}

	var missing []string
	for _, m := range members {
		if !covered[m.Val().ExactString()] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return nil
	}
	return []Diagnostic{f.Diag("exhaustive", sw,
		"switch over %s misses %s (add the cases or an explicit default)",
		named.Obj().Name(), strings.Join(missing, ", "))}
}

// enumMembers returns the package-level constants whose type is
// exactly the named type, in declaration order, provided the type is
// module-declared with a basic non-bool underlying type.
func enumMembers(p *Program, named *types.Named) []*types.Const {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	path := obj.Pkg().Path()
	if path != p.ModulePath && !strings.HasPrefix(path, p.ModulePath+"/") {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsBoolean != 0 {
		return nil
	}
	if basic.Info()&(types.IsInteger|types.IsString) == 0 {
		return nil
	}
	scope := obj.Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Type() != named {
			continue
		}
		out = append(out, c)
	}
	// scope.Names is sorted alphabetically; re-sort by declaration
	// position so diagnostics list members in source order.
	sortConstsByPos(p.Fset, out)
	return out
}

func sortConstsByPos(fset *token.FileSet, cs []*types.Const) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && fset.Position(cs[j].Pos()).Offset < fset.Position(cs[j-1].Pos()).Offset; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
