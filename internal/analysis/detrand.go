package analysis

import "go/ast"

// Detrand enforces seed-reproducibility in the deterministic core of
// the pipeline: the paper's results are only trustworthy if simulator
// and training runs are bit-identical under a fixed seed, so the
// packages that implement them must thread seeded *rand.Rand values
// and never touch the global math/rand top-level functions (whose
// state is process-wide and unseeded). Constructing generators
// (rand.New, rand.NewSource, ...) is the approved pattern and stays
// legal.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid global math/rand top-level functions in deterministic packages",
	Run:  runDetrand,
}

// detrandPkgs are the packages whose runs must replay bit-identically
// under a fixed seed.
var detrandPkgs = map[string]bool{
	"internal/truenorth": true,
	"internal/eedn":      true,
	"internal/parrot":    true,
	"internal/detect":    true,
}

// detrandGlobal lists the math/rand (and v2) top-level functions that
// read or mutate the shared global generator.
var detrandGlobal = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
	"Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func runDetrand(p *Program) []Diagnostic {
	return p.eachFile(func(pkg *Package, f *File) []Diagnostic {
		if !detrandPkgs[f.Pkg] {
			return nil
		}
		var out []Diagnostic
		walkWithStack(f, func(n ast.Node, stack []ast.Node) {
			fn := funcRef(pkg.Info, n, stack)
			if fn == nil || !detrandGlobal[fn.Name()] {
				return
			}
			if path := fn.Pkg().Path(); path == "math/rand" || path == "math/rand/v2" {
				out = append(out, f.Diag("detrand", n,
					"global math/rand.%s breaks seed-reproducibility; thread a seeded *rand.Rand (e.g. rand.New(rand.NewSource(seed)))", fn.Name()))
			}
		})
		return out
	})
}
