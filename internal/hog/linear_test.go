package hog

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/imgproc"
	"repro/internal/svm"
)

// linearEdgeValues are the weights, biases, pixels and descriptor
// values that would expose a reordered or regrouped sum: signed zeros,
// infinities, NaN, subnormals and extremes.
var linearEdgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
}

// sameScore reports whether two scores have the same IEEE-754 bits.
// Any NaN matches any NaN: the Go specification leaves NaN payloads
// and signs unspecified, so they are not part of the contract.
func sameScore(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// pickValue returns table[b] for b below the table length and free
// otherwise, so a fuzzed byte selects either an edge value or the
// fuzzer's own float.
func pickValue(table []float64, b byte, free float64) float64 {
	if int(b) < len(table) {
		return table[b]
	}
	return free
}

// sortedAssemblers returns oracleExtractors in name order, so a fuzzed
// index names the same assembler on every run.
func sortedAssemblers(tb testing.TB) ([]string, map[string]gridExtractor) {
	m := oracleExtractors(tb)
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, m
}

// linearImage is the scan target of the linear-score tests: 32x17
// cells, so nine windows three cells apart fit one row, and two window
// rows. Its width and height are not cell multiples.
func linearImage(seed int64) *imgproc.Image { return noiseImage(263, 141, seed) }

// windowScores is the per-window oracle: svm.Model.Score of the
// DescriptorInto descriptor of every window of g, indexed
// [cellY][cellX].
func windowScores(tb testing.TB, e gridExtractor, g *Grid, w []float64, b float64) [][]float64 {
	tb.Helper()
	cfg := e.Config()
	m := &svm.Model{W: w, B: b}
	var out [][]float64
	for cy := 0; cy+cfg.CellsY() <= g.CellsY; cy++ {
		var row []float64
		for cx := 0; cx+cfg.CellsX() <= g.CellsX; cx++ {
			d, err := e.DescriptorInto(nil, g, cx, cy)
			if err != nil {
				tb.Fatal(err)
			}
			row = append(row, m.Score(d))
		}
		out = append(out, row)
	}
	return out
}

// checkRun scores the n windows at (cellX+j*step, cellY) with
// LinearScoresInto after a one-value prefix and compares each with the
// oracle bit for bit.
func checkRun(tb testing.TB, name string, e gridExtractor, g *Grid, want [][]float64, cellX, cellY, step, n int, w []float64, b float64) {
	tb.Helper()
	prefix := []float64{-7}
	got, err := e.LinearScoresInto(prefix, g, cellX, cellY, step, n, w, b)
	if err != nil {
		tb.Fatalf("%s: run (%d,%d) step %d n %d: %v", name, cellX, cellY, step, n, err)
	}
	if len(got) != 1+n || got[0] != -7 {
		tb.Fatalf("%s: run (%d,%d) step %d n %d: appended %d values after the prefix %v, want %d",
			name, cellX, cellY, step, n, len(got)-1, got[0], n)
	}
	for j, s := range got[1:] {
		if ws := want[cellY][cellX+j*step]; !sameScore(s, ws) {
			tb.Fatalf("%s: run (%d,%d) step %d n %d: window %d scores %v (%#x), Score of its descriptor %v (%#x)",
				name, cellX, cellY, step, n, j, s, math.Float64bits(s), ws, math.Float64bits(ws))
		}
	}
}

// plantEdgeValues overwrites every stride-th value of g's block plane
// with an edge value, cycling through the table.
func plantEdgeValues(g *Grid, stride int) {
	for i, k := 0, 0; i < len(g.blocks.data); i, k = i+stride, k+1 {
		g.blocks.data[i] = linearEdgeValues[k%len(linearEdgeValues)]
	}
}

// TestLinearScoresIntoMatchesScore is the kernel's differential test:
// for every descriptor assembler, every window step 1-3 and run length
// 1-9 (every remainder mod 4) at every start that fits, each score must
// equal svm.Model.Score of the window's DescriptorInto descriptor bit
// for bit. It runs over random weights and pixels, then over edge
// values in the weights, the bias, the pixels and the block plane, and
// then over signed-zero weights and bias, where only the order of the
// additions decides the sign of the result.
func TestLinearScoresIntoMatchesScore(t *testing.T) {
	names, asms := sortedAssemblers(t)
	for _, name := range names {
		e := asms[name]
		cfg := e.Config()
		rng := rand.New(rand.NewSource(int64(len(name))))
		normal := make([]float64, cfg.DescriptorLen())
		for i := range normal {
			normal[i] = rng.NormFloat64()
		}
		edge := append([]float64(nil), normal...)
		for i := 0; i < len(edge); i += 37 {
			edge[i] = linearEdgeValues[(i/37)%len(linearEdgeValues)]
		}
		zeros := make([]float64, cfg.DescriptorLen())
		for i := range zeros {
			if i%3 == 1 {
				zeros[i] = math.Copysign(0, -1)
			}
		}
		edgeImg := linearImage(5)
		for i := 0; i < len(edgeImg.Pix); i += 211 {
			edgeImg.Pix[i] = linearEdgeValues[(i/211)%len(linearEdgeValues)]
		}
		cases := []struct {
			name  string
			img   *imgproc.Image
			plant int // block-plane stride for planted edge values; 0 plants none
			w     []float64
			b     float64
		}{
			{"random", linearImage(4), 0, normal, 0.375},
			{"edge", edgeImg, 101, edge, -1.5},
			{"edge-bias", linearImage(6), 0, normal, math.Inf(-1)},
			{"signed-zeros", linearImage(7), 0, zeros, math.Copysign(0, -1)},
		}
		for _, tc := range cases {
			var g Grid
			e.GridInto(&g, tc.img)
			if tc.plant > 0 {
				plantEdgeValues(&g, tc.plant)
			}
			want := windowScores(t, e, &g, tc.w, tc.b)
			label := name + "/" + tc.name
			runs := 0
			for step := 1; step <= 3; step++ {
				for n := 1; n <= 9; n++ {
					for cy := range want {
						for cx := 0; cx+(n-1)*step < len(want[cy]); cx++ {
							checkRun(t, label, e, &g, want, cx, cy, step, n, tc.w, tc.b)
							runs++
						}
					}
				}
			}
			if runs == 0 {
				t.Fatalf("%s: no run fits the grid", label)
			}
		}
	}
}

// TestLinearScoresIntoErrors checks every failure leaves dst unchanged:
// a window off the grid (the first, the last, or a step or count too
// large for the grid), a negative count, a grid without a block plane,
// and a weight vector of the wrong length.
func TestLinearScoresIntoErrors(t *testing.T) {
	names, asms := sortedAssemblers(t)
	for _, name := range names {
		e := asms[name]
		cfg := e.Config()
		var g Grid
		e.GridInto(&g, linearImage(8))
		w := make([]float64, cfg.DescriptorLen())
		lastX := g.CellsX - cfg.CellsX()
		lastY := g.CellsY - cfg.CellsY()
		dst := make([]float64, 2, 8)
		dst[0], dst[1] = 3, 4
		check := func(what string, out []float64, err error, want error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s: %s: no error", name, what)
			}
			if want != nil && !errors.Is(err, want) {
				t.Fatalf("%s: %s: err %v, want %v", name, what, err, want)
			}
			if len(out) != 2 || cap(out) != 8 || &out[0] != &dst[0] || out[0] != 3 || out[1] != 4 {
				t.Fatalf("%s: %s: dst changed on error (len %d cap %d)", name, what, len(out), cap(out))
			}
		}
		for _, run := range []struct {
			what                  string
			cellX, cellY, step, n int
		}{
			{"first window right of the grid", lastX + 1, 0, 1, 1},
			{"first window left of the grid", -1, 0, 1, 2},
			{"window below the grid", 0, lastY + 1, 1, 1},
			{"last window off the grid", 0, 0, 1, lastX + 2},
			{"last window off the grid at step 3", 0, lastY, 3, lastX/3 + 2},
			{"negative step off the grid", 2, 0, -1, 4},
			{"step wider than the grid", 0, 0, math.MaxInt, 2},
			{"negative step wider than the grid", lastX, 0, math.MinInt, 2},
			{"count larger than the grid", 0, 0, 1, math.MaxInt},
			{"negative count", 0, 0, 1, -1},
		} {
			out, err := e.LinearScoresInto(dst, &g, run.cellX, run.cellY, run.step, run.n, w, 0)
			check(run.what, out, err, nil)
		}
		out, err := e.LinearScoresInto(dst, &g, 0, 0, 1, 2, w[1:], 0)
		check("short weights", out, err, nil)
		out, err = e.LinearScoresInto(dst, &g, 0, 0, 1, 2, append(w, 0), 0)
		check("long weights", out, err, nil)
		if out, err := e.LinearScoresInto(dst, &g, 0, 0, 1, 0, w, 0); err != nil || len(out) != 2 {
			t.Fatalf("%s: empty run: len %d, err %v; want dst unchanged and no error", name, len(out), err)
		}
		g.InvalidateBlocks()
		out, err = e.LinearScoresInto(dst, &g, 0, 0, 1, 2, w, 0)
		check("invalidated block plane", out, err, ErrNoBlockPlane)
	}
}

// FuzzLinearScores drives LinearScoresInto with fuzzed assemblers,
// runs, weights, bias, pixels and planted block-plane values, and
// holds every score to svm.Model.Score of the window's DescriptorInto
// descriptor bit for bit (any NaN matching any NaN). A run that does
// not fit the grid must fail exactly when some window's DescriptorInto
// fails, and leave dst unchanged.
func FuzzLinearScores(f *testing.F) {
	names, asms := sortedAssemblers(f)
	sel := make([]byte, len(linearEdgeValues))
	for i := range sel {
		sel[i] = byte(i)
	}
	for asm := range names {
		f.Add(uint8(asm), uint8(0), uint8(8), uint8(0), uint8(1), sel, sel, []byte{0, 255}, 0.5, -0.25, 1.0)
	}
	f.Add(uint8(0), uint8(2), uint8(8), uint8(0), uint8(0), []byte{7}, []byte{0, 0, 7}, []byte{}, 0.0, math.NaN(), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, asm, step, n, cellX, cellY uint8, wsel, planted, pix []byte, wFree, xFree, bias float64) {
		name := names[int(asm)%len(names)]
		e := asms[name]
		cfg := e.Config()
		img := linearImage(9)
		// Pixel edits: (position byte, value byte) pairs, spread over
		// the image.
		for i := 0; i+1 < len(pix); i += 2 {
			at := int(pix[i]) * len(img.Pix) / 256
			img.Pix[at] = pickValue(linearEdgeValues, pix[i+1], 0.5)
		}
		var g Grid
		e.GridInto(&g, img)
		// Planted plane values: (two position bytes, value byte).
		for i := 0; i+2 < len(planted); i += 3 {
			at := (int(planted[i])<<8 | int(planted[i+1])) * len(g.blocks.data) >> 16
			g.blocks.data[at] = pickValue(linearEdgeValues, planted[i+2], xFree)
		}
		rng := rand.New(rand.NewSource(int64(len(wsel))))
		w := make([]float64, cfg.DescriptorLen())
		for i := range w {
			if i < len(wsel) {
				w[i] = pickValue(linearEdgeValues, wsel[i], wFree)
			} else {
				w[i] = rng.NormFloat64()
			}
		}
		st, cnt := 1+int(step%3), 1+int(n%9)
		cx, cy := int(cellX%32), int(cellY%3)
		m := &svm.Model{W: w, B: bias}
		var want []float64
		fits := true
		for j := 0; j < cnt; j++ {
			d, err := e.DescriptorInto(nil, &g, cx+j*st, cy)
			if err != nil {
				fits = false
				break
			}
			want = append(want, m.Score(d))
		}
		dst := []float64{-7}
		got, err := e.LinearScoresInto(dst, &g, cx, cy, st, cnt, w, bias)
		if !fits {
			if err == nil || len(got) != 1 || got[0] != -7 {
				t.Fatalf("%s: run (%d,%d) step %d n %d off the grid: err %v, len %d", name, cx, cy, st, cnt, err, len(got))
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: run (%d,%d) step %d n %d: %v", name, cx, cy, st, cnt, err)
		}
		if len(got) != 1+cnt || got[0] != -7 {
			t.Fatalf("%s: appended %d values, want %d", name, len(got)-1, cnt)
		}
		for j, s := range got[1:] {
			if !sameScore(s, want[j]) {
				t.Fatalf("%s: run (%d,%d) step %d n %d: window %d scores %v (%#x), Score %v (%#x)",
					name, cx, cy, st, cnt, j, s, math.Float64bits(s), want[j], math.Float64bits(want[j]))
			}
		}
	})
}
