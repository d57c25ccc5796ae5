package hog

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/imgproc"
)

// gridIntoLegacy is a faithful test-only copy of the historical
// per-pixel GridInto (non-spatial path): full-image gradient via
// imgproc.ComputeGradient, then per-cell raster voting through the
// unchanged vote method. The blocked SoA kernels must reproduce it
// bit-for-bit on the default path.
func gridIntoLegacy(e *Extractor, g *Grid, img *imgproc.Image) {
	cs := e.cfg.CellSize
	cx, cy := img.W/cs, img.H/cs
	g.Reset(cx, cy, e.cfg.NBins)
	grad := imgproc.ComputeGradient(img)
	for j := 0; j < cy; j++ {
		for i := 0; i < cx; i++ {
			hist := g.Hist(i, j)
			for y := j * cs; y < (j+1)*cs; y++ {
				for x := i * cs; x < (i+1)*cs; x++ {
					mag, ang := grad.MagAngle(x, y)
					e.vote(hist, mag, ang)
				}
			}
		}
	}
}

// kernelConfigs spans the voting/bin/sign space the blocked kernels
// must cover.
func kernelConfigs(t *testing.T) map[string]*Extractor {
	t.Helper()
	out := map[string]*Extractor{}
	add := func(name string, cfg Config) {
		e, err := NewExtractor(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = e
	}
	ref := Reference()
	add("interp-unsigned-9", ref)

	signed := ref
	signed.Signed = true
	signed.NBins = 18
	add("interp-signed-18", signed)

	magOnly := ref
	magOnly.Voting = VoteMagnitude
	add("magnitude-unsigned-9", magOnly)

	count := NApproxStyle()
	add("count-signed-18", count)

	countZeroThr := count
	countZeroThr.CountThreshold = 0
	add("count-zero-threshold", countZeroThr)
	return out
}

// TestBlockedKernelMatchesLegacy is the kernel differential: the
// blocked gradient+binning / cell-accumulation passes must be
// bit-identical to the historical per-pixel loop on every voting mode,
// including images whose size is not a cell multiple, single-cell
// images, and images too small to hold one cell.
func TestBlockedKernelMatchesLegacy(t *testing.T) {
	sizes := [][2]int{{64, 128}, {96, 160}, {17, 23}, {8, 8}, {10, 9}, {7, 7}}
	for name, e := range kernelConfigs(t) {
		for si, wh := range sizes {
			img := noiseImage(wh[0], wh[1], int64(100+si))
			var want, got Grid
			gridIntoLegacy(e, &want, img)
			e.GridInto(&got, img)
			if got.CellsX != want.CellsX || got.CellsY != want.CellsY || got.Bins != want.Bins {
				t.Fatalf("%s %dx%d: grid %dx%dx%d, want %dx%dx%d", name, wh[0], wh[1],
					got.CellsX, got.CellsY, got.Bins, want.CellsX, want.CellsY, want.Bins)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s %dx%d: Data[%d] = %v, legacy %v (bits differ)",
						name, wh[0], wh[1], i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestBlockPlaneMatchesFallback pins the block plane PrepareBlocks
// rebuilds for grids written in place: under every norm, after cells
// are rewritten through Data (an all-zero block and a scattering of
// new values) and the plane is invalidated and prepared again,
// DescriptorInto must serve, at every window, descriptors
// bit-identical to the per-window fallback assembly (the frozen
// descriptorAt) over the rewritten cells.
func TestBlockPlaneMatchesFallback(t *testing.T) {
	img := noiseImage(96, 160, 7)
	for _, norm := range []NormMode{NormNone, NormL2, NormL1, NormL1Sqrt, NormL2Hys} {
		cfg := Reference()
		cfg.Norm = norm
		e, err := NewExtractor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var g Grid
		e.GridInto(&g, img)
		rng := rand.New(rand.NewSource(int64(norm)))
		for i := range g.Data {
			if i%7 == 0 {
				g.Data[i] = 4 * rng.Float64()
			}
		}
		for cy := 0; cy < cfg.BlockCells; cy++ {
			for cx := 0; cx < cfg.BlockCells; cx++ {
				clear(g.Hist(cx, cy))
			}
		}
		g.InvalidateBlocks()
		e.PrepareBlocks(&g)
		legacy := views(&g)
		for gy := 0; gy+cfg.CellsY() <= g.CellsY; gy++ {
			for gx := 0; gx+cfg.CellsX() <= g.CellsX; gx++ {
				slow, err := descriptorAt(cfg, legacy, gx, gy)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := e.DescriptorInto(nil, &g, gx, gy)
				if err != nil {
					t.Fatalf("norm %v window (%d,%d): %v", norm, gx, gy, err)
				}
				if len(fast) != len(slow) {
					t.Fatalf("norm %v window (%d,%d): len %d vs %d", norm, gx, gy, len(fast), len(slow))
				}
				for i := range fast {
					if math.Float64bits(fast[i]) != math.Float64bits(slow[i]) {
						t.Fatalf("norm %v window (%d,%d): component %d = %v plane vs %v fallback",
							norm, gx, gy, i, fast[i], slow[i])
					}
				}
			}
		}
	}
}

// TestCellHistogramIntoMatchesCellHistogram checks the Into variant
// and its dimension/length validation.
func TestCellHistogramIntoMatchesCellHistogram(t *testing.T) {
	e, err := NewExtractor(Reference())
	if err != nil {
		t.Fatal(err)
	}
	cell := noiseImage(10, 10, 3)
	want, err := e.CellHistogram(cell)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, e.Config().NBins)
	for i := range got {
		got[i] = math.NaN() // must be overwritten, not accumulated
	}
	if err := e.CellHistogramInto(got, cell); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("bin %d: %v vs %v", i, got[i], want[i])
		}
	}
	if err := e.CellHistogramInto(got[:3], cell); err == nil {
		t.Fatal("short hist accepted")
	}
	if err := e.CellHistogramInto(got, noiseImage(9, 9, 3)); err == nil {
		t.Fatal("wrong cell size accepted")
	}
}

// TestDescriptorIntoRejectsStalePlane checks the staleness contract:
// after a direct Data write plus InvalidateBlocks, DescriptorInto
// refuses the grid (error, dst unchanged) instead of serving the stale
// plane, and PrepareBlocks brings it back with the new values.
func TestDescriptorIntoRejectsStalePlane(t *testing.T) {
	e, err := NewExtractor(Reference())
	if err != nil {
		t.Fatal(err)
	}
	img := noiseImage(64, 128, 5)
	var g Grid
	e.GridInto(&g, img)
	before, err := e.DescriptorInto(nil, &g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := g.Hist(0, 0)
	for b := range h {
		h[b] += 10
	}
	g.InvalidateBlocks()
	dst := make([]float64, 2, 8)
	if out, err := e.DescriptorInto(dst, &g, 0, 0); !errors.Is(err, ErrNoBlockPlane) {
		t.Fatalf("DescriptorInto on an invalidated block plane: err %v, want ErrNoBlockPlane", err)
	} else if len(out) != 2 || cap(out) != cap(dst) {
		t.Fatal("dst not returned unchanged on error")
	}
	e.PrepareBlocks(&g)
	after, err := e.DescriptorInto(nil, &g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatal("descriptor unchanged after grid mutation + PrepareBlocks")
	}
}

func ExampleGrid_InvalidateBlocks() {
	e, _ := NewExtractor(Reference())
	img := imgproc.New(64, 128)
	var g Grid
	e.GridInto(&g, img)
	g.Hist(0, 0)[0] = 1  // direct mutation...
	g.InvalidateBlocks() // ...must drop the prepared block plane
	if _, err := e.DescriptorInto(nil, &g, 0, 0); errors.Is(err, ErrNoBlockPlane) {
		fmt.Println("stale plane refused")
	}
	e.PrepareBlocks(&g)
	d, _ := e.DescriptorInto(nil, &g, 0, 0)
	fmt.Println(len(d))
	// Output:
	// stale plane refused
	// 3780
}
