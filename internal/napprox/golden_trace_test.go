package napprox

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/imgproc"
	"repro/internal/truenorth"
)

var update = flag.Bool("update", false, "rewrite golden spike-trace files")

// Golden spike-trace regression fixtures for the builtin NApprox cell
// corelet. Unlike the behavioural tests (which check histogram-level
// agreement with the software model), these pin the exact tick-by-tick
// firing pattern of every neuron in the module, so any change to
// simulator dynamics, corelet wiring, or the noise contract shows up as
// a raster diff rather than a silent drift. Each case runs on the
// default one-shard simulator and on three shards, and both traces and
// histograms are compared to the golden file.
//
// Regenerate with: go test ./internal/napprox -run GoldenSpikeTrace -update

// goldenCells are deterministic 10x10 (CellSize+2 bordered) input
// cells chosen to exercise distinct gradient structure: a horizontal
// ramp (single dominant bin, the pcnn-sim demo cell), a diagonal ramp,
// and a center blob whose gradients fan across many bins.
var goldenCells = []struct {
	name string
	fill func(x, y int) float64
}{
	{"hramp", func(x, y int) float64 { return float64(x) * 0.08 }},
	{"diag", func(x, y int) float64 { return float64(x+y) * 0.05 }},
	{"blob", func(x, y int) float64 {
		dx, dy := float64(x)-4.5, float64(y)-4.5
		v := 1 - (dx*dx+dy*dy)/41
		if v < 0 {
			v = 0
		}
		return v
	}},
}

func TestGoldenSpikeTrace(t *testing.T) {
	for _, tc := range goldenCells {
		t.Run(tc.name, func(t *testing.T) {
			run := func(opts ...truenorth.Option) (*CellModule, *truenorth.Trace, []float64) {
				mod, err := BuildCellModule(TrueNorthConfig())
				if err != nil {
					t.Fatal(err)
				}
				sim, err := truenorth.NewSimulator(mod.Model, 1, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Close()
				tr := truenorth.NewTrace()
				sim.SetTrace(tr)
				side := mod.cellSize + 2
				cell := imgproc.New(side, side)
				for y := 0; y < side; y++ {
					for x := 0; x < side; x++ {
						cell.Set(x, y, tc.fill(x, y))
					}
				}
				hist, err := mod.Extract(sim, cell)
				if err != nil {
					t.Fatal(err)
				}
				return mod, tr, hist
			}
			mod, tr, hist := run()
			_, trShard, histShard := run(truenorth.WithShards(3))

			got := formatGoldenTrace(mod, tr, hist)
			gotShard := formatGoldenTrace(mod, trShard, histShard)
			golden := filepath.Join("testdata", "trace_"+tc.name+".golden")
			if *update {
				if !bytes.Equal(got, gotShard) {
					t.Fatalf("3-shard run diverged from the one-shard run on %s:\n%s",
						tc.name, firstTraceDiff(got, gotShard))
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("spike trace drifted from golden %s:\n%s\nif the change is intended, regenerate with -update",
					golden, firstTraceDiff(want, got))
			}
			if !bytes.Equal(gotShard, want) {
				t.Errorf("sharded spike trace drifted from golden %s:\n%s",
					golden, firstTraceDiff(want, gotShard))
			}
		})
	}
}

// formatGoldenTrace renders a trace in the golden format: a header with
// geometry and per-bin output counts, then one line per firing neuron
// with its run-length-encoded firing ticks ("3-7" means it fired every
// tick from 3 through 7).
func formatGoldenTrace(mod *CellModule, tr *truenorth.Trace, hist []float64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "cores %d window %d drain %d events %d\n",
		mod.Cores(), mod.Window, mod.DrainTicks, len(tr.Events))
	b.WriteString("outputs")
	for _, h := range hist {
		fmt.Fprintf(&b, " %g", h)
	}
	b.WriteString("\n")
	rows := map[[2]int][]uint64{}
	for _, e := range tr.Events {
		k := [2]int{e.Core, e.Neuron}
		rows[k] = append(rows[k], e.Tick) // tick-ordered by construction
	}
	keys := make([][2]int, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "c%03d n%03d", k[0], k[1])
		ticks := rows[k]
		for i := 0; i < len(ticks); {
			j := i
			for j+1 < len(ticks) && ticks[j+1] == ticks[j]+1 {
				j++
			}
			if j == i {
				fmt.Fprintf(&b, " %d", ticks[i])
			} else {
				fmt.Fprintf(&b, " %d-%d", ticks[i], ticks[j])
			}
			i = j + 1
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// firstTraceDiff reports the first line where the traces disagree, so
// a drift points straight at the offending neuron instead of dumping
// two multi-thousand-line rasters.
func firstTraceDiff(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("first diff at line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(w), len(g))
}
