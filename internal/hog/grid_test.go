package hog

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixed"
	"repro/internal/imgproc"
)

// noiseImage returns a deterministic pseudo-random test image.
func noiseImage(w, h int, seed int64) *imgproc.Image {
	rng := rand.New(rand.NewSource(seed))
	img := imgproc.New(w, h)
	for i := range img.Pix {
		img.Pix[i] = rng.Float64()
	}
	return img
}

// gridConfigs covers the three GridInto voting paths.
func gridConfigs() map[string]Config {
	interp := Reference()
	interp.SpatialInterp = true
	return map[string]Config{
		"reference":     Reference(),
		"napprox-style": NApproxStyle(),
		"spatial":       interp,
	}
}

// cellGrid builds a cell grid one cell at a time through CellHistogram,
// each cell read as its replicate-padded bordered patch, in the legacy
// [cy][cx][bin] indexing. It shares no code with GridInto's blocked
// gradient and accumulation passes.
func cellGrid(t *testing.T, e *Extractor, img *imgproc.Image) [][][]float64 {
	t.Helper()
	cs := e.Config().CellSize
	rows := make([][][]float64, img.H/cs)
	for cy := range rows {
		rows[cy] = make([][]float64, img.W/cs)
		for cx := range rows[cy] {
			h, err := e.CellHistogram(img.SubImage(cx*cs-1, cy*cs-1, cs+2, cs+2))
			if err != nil {
				t.Fatal(err)
			}
			rows[cy][cx] = h
		}
	}
	return rows
}

// TestGridIntoMatchesCellGrid checks that the whole-image grid and the
// per-cell path agree: every cell GridInto fills, border cells
// included, is bit-identical to CellHistogram of that cell's bordered
// patch. Spatial voting is left out: it spills votes across cells, so
// no single-cell histogram can reproduce it.
func TestGridIntoMatchesCellGrid(t *testing.T) {
	img := noiseImage(101, 157, 1)
	for name, cfg := range gridConfigs() {
		if cfg.SpatialInterp {
			continue
		}
		e, err := NewExtractor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		legacy := cellGrid(t, e, img)
		var g Grid
		e.GridInto(&g, img)
		if g.CellsY != len(legacy) || g.CellsX != len(legacy[0]) || g.Bins != cfg.NBins {
			t.Fatalf("%s: grid is %dx%dx%d, want %dx%dx%d",
				name, g.CellsX, g.CellsY, g.Bins, len(legacy[0]), len(legacy), cfg.NBins)
		}
		for cy := 0; cy < g.CellsY; cy++ {
			for cx := 0; cx < g.CellsX; cx++ {
				got, want := g.Hist(cx, cy), legacy[cy][cx]
				for b := range want {
					if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
						t.Fatalf("%s: cell (%d,%d) bin %d = %v, CellHistogram %v",
							name, cx, cy, b, got[b], want[b])
					}
				}
			}
		}
	}
}

func TestGridResetReusesAndZeroes(t *testing.T) {
	var g Grid
	g.Reset(4, 4, 9)
	for i := range g.Data {
		g.Data[i] = 7
	}
	backing := &g.Data[0]
	g.Reset(3, 3, 9) // smaller: must reuse and zero
	if &g.Data[0] != backing {
		t.Fatal("shrinking Reset reallocated")
	}
	for i, v := range g.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v after Reset, want 0", i, v)
		}
	}
}

// oracleExtractors spans the descriptor assemblers behind every
// paradigm's DescriptorInto: the FPGA model, the 18-bin signed
// count-voting assembler napprox.New builds (L2 for the SVM
// experiments, none for TrueNorth; parrot.NewExtractor builds the
// NormNone one), the reference HoG under all five norms, the strided
// branch (BlockStride 2), 3x3-cell blocks, and the spatial voting
// path.
func oracleExtractors(t testing.TB) map[string]gridExtractor {
	t.Helper()
	out := map[string]gridExtractor{}
	fpga, err := NewFPGAExtractor(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	out["fpga"] = fpga
	add := func(name string, cfg Config) {
		e, err := NewExtractor(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = e
	}
	count := Config{
		CellSize: 8, NBins: 18, Signed: true,
		Voting: VoteCount, Norm: NormL2,
		BlockCells: 2, BlockStride: 1,
		WindowW: 64, WindowH: 128,
	}
	add("napprox-l2", count)
	count.Norm = NormNone
	add("napprox-none/parrot", count)
	for _, norm := range []NormMode{NormNone, NormL2, NormL1, NormL1Sqrt, NormL2Hys} {
		cfg := Reference()
		cfg.Norm = norm
		add("reference-"+norm.String(), cfg)
	}
	cfg := Reference()
	cfg.BlockStride = 2
	add("stride2", cfg)
	cfg = Reference()
	cfg.BlockCells = 3
	add("cells3", cfg)
	cfg.BlockStride = 2
	add("cells3-stride2", cfg)
	cfg = Reference()
	cfg.SpatialInterp = true
	add("spatial", cfg)
	return out
}

// TestDescriptorIntoMatchesDescriptorAt is the descriptor oracle: at
// every window of a non-cell-multiple image, DescriptorInto (copies
// out of the block plane) must be bit-identical to the frozen
// per-window assembly (descriptorAt over the same cells).
func TestDescriptorIntoMatchesDescriptorAt(t *testing.T) {
	img := noiseImage(101, 157, 2)
	for name, e := range oracleExtractors(t) {
		cfg := e.Config()
		var g Grid
		e.GridInto(&g, img)
		legacy := views(&g)
		var dst []float64
		windows := 0
		for cy := 0; cy+cfg.CellsY() <= g.CellsY; cy++ {
			for cx := 0; cx+cfg.CellsX() <= g.CellsX; cx++ {
				want, err := descriptorAt(cfg, legacy, cx, cy)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.DescriptorInto(dst[:0], &g, cx, cy)
				if err != nil {
					t.Fatalf("%s: window (%d,%d): %v", name, cx, cy, err)
				}
				if len(got) != len(want) || len(got) != cfg.DescriptorLen() {
					t.Fatalf("%s: window (%d,%d): len %d, oracle %d, DescriptorLen %d",
						name, cx, cy, len(got), len(want), cfg.DescriptorLen())
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: window (%d,%d) component %d = %v, oracle %v",
							name, cx, cy, i, got[i], want[i])
					}
				}
				dst = got // reuse scratch like the scan engine does
				windows++
			}
		}
		if windows != 20 {
			t.Fatalf("%s: scanned %d windows, want 20", name, windows)
		}
	}
}

func TestDescriptorIntoAppends(t *testing.T) {
	e, err := NewExtractor(Reference())
	if err != nil {
		t.Fatal(err)
	}
	var g Grid
	e.GridInto(&g, noiseImage(64, 128, 3))
	prefix := []float64{1, 2, 3}
	out, err := e.DescriptorInto(prefix, &g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3+e.Config().DescriptorLen() {
		t.Fatalf("appended %d values, want %d", len(out)-3, e.Config().DescriptorLen())
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatal("prefix clobbered")
	}
}

func TestDescriptorIntoErrors(t *testing.T) {
	e, err := NewExtractor(Reference())
	if err != nil {
		t.Fatal(err)
	}
	var g Grid
	e.GridInto(&g, noiseImage(64, 128, 4))
	dst := make([]float64, 0, 8)
	if out, err := e.DescriptorInto(dst, &g, 1, 0); err == nil {
		t.Fatal("out-of-bounds window should error")
	} else if len(out) != 0 || cap(out) != cap(dst) {
		t.Fatal("dst not returned unchanged on error")
	}
	bad := NApproxStyle()
	be, err := NewExtractor(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.DescriptorInto(dst, &g, 0, 0); err == nil {
		t.Fatal("bin-count mismatch should error")
	}
}

// fpgaGridIntoLegacy is a frozen copy of the FPGA cell pass as first
// written: every neighbor read through a clamping closure over the
// quantized pixel plane, one heap histogram per grid. fixedCellPass
// (row-granular clamps, on-stack histogram) must reproduce it bit for
// bit.
func fpgaGridIntoLegacy(e *FPGAExtractor, g *Grid, img *imgproc.Image) {
	cs := e.cfg.CellSize
	cx, cy := img.W/cs, img.H/cs
	q := e.q
	g.Reset(cx, cy, e.cfg.NBins)
	pix := make([]int64, img.W*img.H)
	for i, v := range img.Pix {
		pix[i] = q.FromFloat(v)
	}
	at := func(x, y int) int64 {
		if x < 0 {
			x = 0
		}
		if x >= img.W {
			x = img.W - 1
		}
		if y < 0 {
			y = 0
		}
		if y >= img.H {
			y = img.H - 1
		}
		return pix[y*img.W+x]
	}
	hist := make([]int64, e.cfg.NBins)
	for j := 0; j < cy; j++ {
		for i := 0; i < cx; i++ {
			for b := range hist {
				hist[b] = 0
			}
			for y := j * cs; y < (j+1)*cs; y++ {
				for x := i * cs; x < (i+1)*cs; x++ {
					ix := q.Sub(at(x+1, y), at(x-1, y))
					iy := q.Sub(at(x, y-1), at(x, y+1))
					if ix == 0 && iy == 0 {
						continue
					}
					mag := q.Sqrt(q.Add(q.Mul(ix, ix), q.Mul(iy, iy)))
					bin := fixed.Atan2Bin(iy, ix, e.cfg.NBins, e.cfg.Signed)
					hist[bin] = q.Add(hist[bin], mag)
				}
			}
			fh := g.Hist(i, j)
			for b, v := range hist {
				fh[b] = q.ToFloat(v)
			}
		}
	}
}

// fpgaEdgePixels are pixel values that take the FPGA datapath off its
// gradient table or hit FromFloat's special cases: negatives, values
// above 1, the Q8.8 rails and far past them, ±Inf, NaN, −0, and
// rounding ties.
var fpgaEdgePixels = []float64{
	-0.25, -1, 1.5, 3, 128, -128, 127.99609375, 1e6, -1e6,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1),
	0.5 / 256, 255.5 / 256,
}

// fpgaTestImages returns the images the FPGA differential runs at one
// size: uniform noise in [0, 1] (the table's whole domain), that noise
// with every third pixel an edge value, noise over [-1, 2] (about two
// pixels in three outside [0, 1]), and a checkerboard of 2x2-pixel
// squares at the ±128 rails, where both gradient components of every
// interior pixel saturate.
func fpgaTestImages(w, h int, seed int64) map[string]*imgproc.Image {
	noise := noiseImage(w, h, seed)
	edge := noiseImage(w, h, seed)
	for i := 0; i < len(edge.Pix); i += 3 {
		edge.Pix[i] = fpgaEdgePixels[(i/3)%len(fpgaEdgePixels)]
	}
	wide := noiseImage(w, h, seed)
	for i, v := range wide.Pix {
		wide.Pix[i] = 3*v - 1
	}
	rails := imgproc.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			rails.Set(x, y, float64(128-256*((x/2+y/2)%2)))
		}
	}
	return map[string]*imgproc.Image{"noise": noise, "edge": edge, "wide": wide, "rails": rails}
}

// sameGrid fails the test unless got has want's shape and bits.
func sameGrid(t testing.TB, label string, got, want *Grid) {
	t.Helper()
	if got.CellsX != want.CellsX || got.CellsY != want.CellsY || got.Bins != want.Bins {
		t.Fatalf("%s: grid %dx%dx%d, want %dx%dx%d", label,
			got.CellsX, got.CellsY, got.Bins, want.CellsX, want.CellsY, want.Bins)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: Data[%d] = %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestFPGAGridIntoAndDescriptorInto checks the fixed-point model end
// to end. GridInto, into one grid reused across sizes, must match the
// frozen per-pixel closure loop bit for bit on cell-multiple, ragged,
// single-cell and sub-cell images, with pixels in [0, 1] and with the
// out-of-range, infinite, NaN and signed-zero pixels that leave the
// gradient table for the saturating arithmetic. DescriptorInto must
// append the frozen per-window assembly's descriptor after dst's
// contents, and must refuse a grid whose block plane was prepared
// under another norm.
func TestFPGAGridIntoAndDescriptorInto(t *testing.T) {
	e, err := NewFPGAExtractor(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	var g Grid
	sizes := [][2]int{{96, 160}, {101, 157}, {17, 23}, {8, 8}, {7, 7}}
	for si, wh := range sizes {
		for name, img := range fpgaTestImages(wh[0], wh[1], int64(5+si)) {
			var want Grid
			fpgaGridIntoLegacy(e, &want, img)
			e.GridInto(&g, img)
			sameGrid(t, fmt.Sprintf("%s %dx%d", name, wh[0], wh[1]), &g, &want)
		}
	}

	img := noiseImage(96, 160, 5)
	e.GridInto(&g, img)
	want, err := descriptorAt(e.Config(), views(&g), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []float64{-1, -2}
	got, err := e.DescriptorInto(prefix, &g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prefix)+len(want) || got[0] != -1 || got[1] != -2 {
		t.Fatalf("DescriptorInto returned %d values or clobbered the prefix; want %d after it",
			len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[len(prefix)+i]) != math.Float64bits(want[i]) {
			t.Fatalf("component %d = %v, frozen assembly %v", i, got[len(prefix)+i], want[i])
		}
	}

	// An L2-Hys reference HoG has the FPGA's bins and block size but
	// another norm, so its block plane is not one the FPGA may serve.
	hys := Reference()
	hys.Norm = NormL2Hys
	ref, err := NewExtractor(hys)
	if err != nil {
		t.Fatal(err)
	}
	ref.GridInto(&g, img)
	if _, err := e.DescriptorInto(nil, &g, 2, 1); !errors.Is(err, ErrNoBlockPlane) {
		t.Fatalf("FPGA DescriptorInto over an L2-Hys block plane: err %v, want ErrNoBlockPlane", err)
	}
}
