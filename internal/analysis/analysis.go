// Package analysis is the repo's custom static-analysis suite, written
// against the standard library only (go/parser, go/ast, go/types and
// go/importer; the module deliberately has zero dependencies, so
// golang.org/x/tools is off limits). Every analyzer runs on the one
// type-checked Program that LoadProgram builds and resolves names
// through its type information, never by spelling. The suite enforces
// the invariants the paper's methodology rests on — a validated,
// bit-reproducible simulator under fixed TrueNorth resource
// constraints and a bit-exact fixed-point datapath:
//
//   - detrand:    no global math/rand in the deterministic packages;
//     RNGs are threaded as seeded *rand.Rand values.
//   - walltime:   no wall-clock reads outside internal/obs or
//     obs.Enabled()-gated telemetry boundaries, keeping runs replayable.
//   - floatfixed: no float arithmetic inside fixed-point datapaths
//     except through the fixed.Q FromFloat/ToFloat boundary.
//   - obsgate:    telemetry publishes inside loops must sit behind an
//     obs.Enabled() check or at a coarse boundary.
//   - errpanic:   no panic in library packages where error returns are
//     the convention.
//   - hotalloc:   //pcnn:hotpath functions and everything they call are
//     allocation-free, proven over the resolved call graph.
//   - maporder:   no order-sensitive work inside range-over-map loops.
//   - goleak:     every goroutine a library package launches has a
//     visible join.
//   - exhaustive: switches over enum-like const sets cover every member
//     or declare a default.
//
// Findings are suppressed one call site at a time with a
//
//	//lint:allow <analyzer> <reason>
//
// directive on the offending line or the line above; the reason is
// mandatory and unused directives are themselves reported. The package
// also provides CheckModelSpec, a static validator for TrueNorth model
// files (the compile-time counterpart of the simulator's runtime
// checks); see modelcheck.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic as file:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// File is one parsed source file of a loaded package.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	// Path is the file path as given to the parser.
	Path string
	// Pkg is the slash-separated package directory relative to the
	// module root, e.g. "internal/truenorth".
	Pkg string
	// IsTest reports a _test.go file. Test files are parsed so their
	// directives count, but they are not type-checked and analyzers
	// never see them.
	IsTest bool
}

// Diag constructs a diagnostic at node's position.
func (f *File) Diag(analyzer string, node ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      f.Fset.Position(node.Pos()),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Analyzer is one check over the type-checked program. Run returns raw
// findings; directive suppression is applied by LintProgram.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Program) []Diagnostic
}

// DefaultAnalyzers returns the full suite in reporting order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{Detrand, Walltime, FloatFixed, ObsGate, ErrPanic, HotAlloc, MapOrder, GoLeak, Exhaustive}
}

// LintProgram runs the analyzers over the program, applies the
// //lint:allow directives of every file (test files included), and
// returns the surviving diagnostics sorted by position. Malformed
// directives, and directives that name an analyzer that ran yet
// suppress nothing, are reported under the "lint" pseudo-analyzer.
func LintProgram(p *Program, analyzers []*Analyzer) []Diagnostic {
	dirs := map[string]*directiveSet{} // filename -> directives
	var files []string
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			dirs[f.Path] = parseDirectives(f)
			files = append(files, f.Path)
		}
	}
	ran := map[string]bool{}
	var out []Diagnostic
	for _, a := range analyzers {
		ran[a.Name] = true
		for _, d := range a.Run(p) {
			if set := dirs[d.Pos.Filename]; set == nil || !set.suppress(d) {
				out = append(out, d)
			}
		}
	}
	for _, name := range files {
		out = append(out, dirs[name].problems(ran)...)
	}
	sortDiagnostics(out)
	return out
}

// AllowCounts tallies the module's well-formed //lint:allow directives
// per analyzer, the quantity the suppression budget bounds.
func (p *Program) AllowCounts() map[string]int {
	out := map[string]int{}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, dir := range parseDirectives(f).all {
				out[dir.analyzer]++
			}
		}
	}
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ModuleRoot walks up from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}
