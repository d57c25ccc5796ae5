package analysis

import (
	"sort"
	"strings"
	"sync"
	"testing"
)

// The module's own program is loaded once and shared: type-checking
// the repo plus its stdlib imports is the expensive step.
var (
	selfOnce sync.Once
	selfProg *Program
	selfErr  error
)

func selfProgram(t *testing.T) *Program {
	t.Helper()
	selfOnce.Do(func() {
		root, err := ModuleRoot(".")
		if err != nil {
			selfErr = err
			return
		}
		selfProg, selfErr = LoadProgram(root)
	})
	if selfErr != nil {
		t.Fatalf("loading module program: %v", selfErr)
	}
	return selfProg
}

// TestLoadProgramSelf checks the loader against the repo itself: the
// known packages resolve, non-test files are typed, test files are
// parsed but untyped.
func TestLoadProgramSelf(t *testing.T) {
	prog := selfProgram(t)
	if prog.ModulePath != "repro" {
		t.Fatalf("module path = %q, want repro", prog.ModulePath)
	}
	for _, path := range []string{
		"repro/internal/analysis",
		"repro/internal/detect",
		"repro/internal/truenorth",
		"repro/cmd/pcnn-lint",
	} {
		if prog.Package(path) == nil {
			t.Errorf("package %s not loaded", path)
		}
	}
	pkg := prog.Package("repro/internal/detect")
	if pkg.Types == nil || pkg.Info == nil {
		t.Fatal("detect package missing type info")
	}
	sawTest := false
	for _, f := range pkg.Files {
		// Info records a file scope for exactly the type-checked files.
		if _, typed := pkg.Info.Scopes[f.AST]; typed == f.IsTest {
			t.Errorf("%s: test file = %v but type-checked = %v", f.Path, f.IsTest, typed)
		}
		sawTest = sawTest || f.IsTest
	}
	if !sawTest || len(pkg.TypedFiles()) == 0 {
		t.Errorf("detect package: sawTest=%v typed files=%d, want both", sawTest, len(pkg.TypedFiles()))
	}
}

// TestCallGraphSelf checks the resolved edges the hotalloc proof rests
// on: the interface calls in the detection row scorer fan out to every
// DescriptorInto and every LinearScoresInto implementation (CHA), and
// the simulator tick body's call to the unexported fire method
// resolves statically.
func TestCallGraphSelf(t *testing.T) {
	g := selfProgram(t).CallGraph()

	findNode := func(name string) *FuncNode {
		t.Helper()
		for _, n := range g.Nodes() {
			if funcDisplayName(n.Obj) == name {
				return n
			}
		}
		t.Fatalf("no call-graph node %s", name)
		return nil
	}

	scan := findNode("(*detect.Detector).scoreRun")
	var descCallees []string
	for _, site := range scan.Calls {
		if !site.Dynamic {
			continue
		}
		for _, c := range site.Callees {
			if name := c.Obj.Name(); name == "DescriptorInto" || name == "LinearScoresInto" {
				descCallees = append(descCallees, funcDisplayName(c.Obj))
			}
		}
	}
	sort.Strings(descCallees)
	want := []string{
		"(*hog.Extractor).DescriptorInto",
		"(*hog.Extractor).LinearScoresInto",
		"(*hog.FPGAExtractor).DescriptorInto",
		"(*hog.FPGAExtractor).LinearScoresInto",
		"(*napprox.Extractor).DescriptorInto",
		"(*napprox.Extractor).LinearScoresInto",
		"(*parrot.Extractor).DescriptorInto",
		"(*parrot.Extractor).LinearScoresInto",
	}
	if strings.Join(descCallees, ",") != strings.Join(want, ",") {
		t.Errorf("scoreRun extractor fan-out = %v, want %v", descCallees, want)
	}

	tick := findNode("(*truenorth.Simulator).runShardTick")
	foundFire, foundExternal := false, false
	for _, site := range tick.Calls {
		for _, c := range site.Callees {
			if c.Obj.Name() == "fire" && !site.Dynamic {
				foundFire = true
			}
		}
		if site.ExternalPkg == "repro/internal/obs" || site.External == "obs.Enabled" {
			foundExternal = true
		}
	}
	if !foundFire {
		t.Error("runShardTick -> (*Core).fire static edge missing")
	}
	// obs is a module package, so obs.Enabled must be a resolved module
	// edge, never classified external.
	if foundExternal {
		t.Error("module-internal call classified as external")
	}
}

// TestLintProgramSelf is the whole-repo self-scan: internal/... and
// cmd/... must be clean under the full nine-analyzer suite, with no
// unexplained suppressions.
func TestLintProgramSelf(t *testing.T) {
	prog := selfProgram(t)
	diags := LintProgram(prog, DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestAllowCountsSelf pins the suppression inventory the committed
// budget file is sized against; growing it should be a conscious,
// reviewed act.
func TestAllowCountsSelf(t *testing.T) {
	counts := selfProgram(t).AllowCounts()
	if counts["hotalloc"] == 0 {
		t.Error("expected at least one hotalloc allow (EednClassifier.Score exclusion)")
	}
	for name, n := range counts {
		if n < 0 {
			t.Errorf("allow count %s = %d", name, n)
		}
	}
}
