package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden expectation files")

// fixtureCase binds an analyzer to its fixture module under
// testdata/<name>: a self-contained mini-module (module fixture) whose
// packages sit at the module-relative paths the analyzer scopes on,
// with small stubs of internal/obs and internal/fixed where the
// analyzer resolves calls into them. Every bad*.go file must produce
// findings and every good*.go file none.
type fixtureCase struct {
	name     string
	analyzer *Analyzer
}

// TestAnalyzerFixtures runs the fixture modules of the five analyzers
// that check calls by what they resolve to (math/rand, time, obs,
// fixed, the builtin panic), plus the directive fixture, through the
// golden-file harness.
// Regenerate with go test ./internal/analysis -run Fixtures -update.
func TestAnalyzerFixtures(t *testing.T) {
	runFixtures(t, []fixtureCase{
		{"detrand", Detrand},
		{"walltime", Walltime},
		{"floatfixed", FloatFixed},
		{"obsgate", ObsGate},
		{"errpanic", ErrPanic},
		{"directives", ErrPanic},
	})
}

// TestTypedFixtures runs the fixture modules of the four analyzers
// that work on the program's call graph and types through the same
// golden-file harness.
func TestTypedFixtures(t *testing.T) {
	runFixtures(t, []fixtureCase{
		{"hotalloc", HotAlloc},
		{"maporder", MapOrder},
		{"goleak", GoLeak},
		{"exhaustive", Exhaustive},
	})
}

// runFixtures is the golden-file harness: each analyzer runs over its
// fixture module and the formatted findings must match
// testdata/<name>/expect.txt exactly.
func runFixtures(t *testing.T, cases []fixtureCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.name)
			prog, err := LoadProgram(dir)
			if err != nil {
				t.Fatalf("loading fixture module: %v", err)
			}
			var got []string
			perFile := map[string]int{}
			for _, d := range LintProgram(prog, []*Analyzer{tc.analyzer}) {
				base := filepath.Base(d.Pos.Filename)
				got = append(got, fmt.Sprintf("%s:%d: %s: %s", base, d.Pos.Line, d.Analyzer, d.Message))
				perFile[base]++
			}
			for _, pkg := range prog.Pkgs {
				for _, f := range pkg.Files {
					base := filepath.Base(f.Path)
					switch {
					case strings.Contains(base, "bad") && perFile[base] == 0:
						t.Errorf("%s: positive fixture produced no findings; the analyzer would not fail without its check", base)
					case strings.Contains(base, "good") && perFile[base] != 0:
						t.Errorf("%s: negative fixture produced %d findings; analyzer over-triggers", base, perFile[base])
					}
				}
			}
			sort.Strings(got)
			text := strings.Join(got, "\n")
			if len(got) > 0 {
				text += "\n"
			}

			golden := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if string(want) != text {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", text, want)
			}
		})
	}
}

// TestDirectiveSuppression pins the directive semantics the fixture
// golden file relies on: reasons are mandatory, same-line and
// line-above placements work, and unused directives surface.
func TestDirectiveSuppression(t *testing.T) {
	prog, err := LoadProgram(filepath.Join("testdata", "directives"))
	if err != nil {
		t.Fatal(err)
	}
	diags := LintProgram(prog, []*Analyzer{ErrPanic})
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	// One surviving panic (missing-reason directive does not suppress),
	// one malformed-directive finding, one unused-directive finding.
	if byAnalyzer["errpanic"] != 1 {
		t.Errorf("errpanic findings = %d, want 1 (suppressions with reasons must hold)", byAnalyzer["errpanic"])
	}
	if byAnalyzer["lint"] != 2 {
		t.Errorf("lint directive findings = %d, want 2 (malformed + unused)", byAnalyzer["lint"])
	}
}
