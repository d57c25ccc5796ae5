package parrot

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/stats"
)

// windowDescriptor assembles, independently of hog's block plane, the
// descriptor of the 8x16-cell window at (cellX, cellY) of a [cy][cx]
// grid: 2x2-cell blocks at stride 1 in raster order, cells within a
// block in raster order, each block L2-normalized by stats.Normalize
// when l2 is set.
func windowDescriptor(grid [][][]float64, cellX, cellY int, l2 bool) []float64 {
	var out []float64
	for by := 0; by+2 <= 16; by++ {
		for bx := 0; bx+2 <= 8; bx++ {
			start := len(out)
			for j := 0; j < 2; j++ {
				for i := 0; i < 2; i++ {
					out = append(out, grid[cellY+by+j][cellX+bx+i]...)
				}
			}
			if l2 {
				stats.Normalize(out[start:])
			}
		}
	}
	return out
}

// TestGridIntoMatchesCellGrid checks the flat-grid path against the
// per-cell one on an image larger than one window: every cell GridInto
// fills must equal CellHistogram of the cell's bordered patch, and
// DescriptorInto must match the per-window assembly of those cells at
// every window, unnormalized by default and L2-normalized after
// SetNorm. A grid prepared before SetNorm must be refused, not served
// under the new norm. An untrained network suffices: conformance is
// about the code paths agreeing, not feature quality.
func TestGridIntoMatchesCellGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := eedn.NewParrotNet(NBins, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExtractor(net, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := imgproc.New(80, 144)
	for i := range img.Pix {
		img.Pix[i] = rng.Float64()
	}
	legacy := make([][][]float64, 18)
	for cy := range legacy {
		legacy[cy] = make([][]float64, 10)
		for cx := range legacy[cy] {
			h, err := e.CellHistogram(img.SubImage(cx*8-1, cy*8-1, CellSide, CellSide))
			if err != nil {
				t.Fatal(err)
			}
			legacy[cy][cx] = h
		}
	}

	var g hog.Grid
	for _, norm := range []hog.NormMode{hog.NormNone, hog.NormL2} {
		if norm != hog.NormNone {
			if err := e.SetNorm(norm); err != nil {
				t.Fatal(err)
			}
			if _, err := e.DescriptorInto(nil, &g, 0, 0); !errors.Is(err, hog.ErrNoBlockPlane) {
				t.Fatalf("%v: grid prepared before SetNorm: err %v, want ErrNoBlockPlane", norm, err)
			}
		}
		e.GridInto(&g, img)
		if g.CellsX != 10 || g.CellsY != 18 || g.Bins != NBins {
			t.Fatalf("grid %dx%dx%d, want 10x18x%d", g.CellsX, g.CellsY, g.Bins, NBins)
		}
		for cy := 0; cy < g.CellsY; cy++ {
			for cx := 0; cx < g.CellsX; cx++ {
				if !reflect.DeepEqual(g.Hist(cx, cy), legacy[cy][cx]) {
					t.Fatalf("cell (%d,%d): GridInto %v, CellHistogram %v",
						cx, cy, g.Hist(cx, cy), legacy[cy][cx])
				}
			}
		}
		for cy := 0; cy+16 <= g.CellsY; cy++ {
			for cx := 0; cx+8 <= g.CellsX; cx++ {
				want := windowDescriptor(legacy, cx, cy, norm == hog.NormL2)
				got, err := e.DescriptorInto(nil, &g, cx, cy)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v: window (%d,%d): len %d, assembly %d", norm, cx, cy, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v: window (%d,%d) component %d = %v, assembly %v",
							norm, cx, cy, i, got[i], want[i])
					}
				}
			}
		}
	}
}
