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
// about the code paths agreeing, not feature quality. The 80x144 image
// covers whole cells, so its last patch row and column cross the
// border; 83x150 has a partial cell on each side, which makes those
// patches interior; in the one-cell 8x8 image every patch is a border
// patch.
func TestGridIntoMatchesCellGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := eedn.NewParrotNet(NBins, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range [][2]int{{80, 144}, {83, 150}, {8, 8}} {
		e, err := NewExtractor(net, 0, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		img := imgproc.New(size[0], size[1])
		for i := range img.Pix {
			img.Pix[i] = rng.Float64()
		}
		cellsX, cellsY := img.W/8, img.H/8
		legacy := make([][][]float64, cellsY)
		for cy := range legacy {
			legacy[cy] = make([][]float64, cellsX)
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
				// The one-cell image has no window to refuse.
				if _, err := e.DescriptorInto(nil, &g, 0, 0); cellsY >= 16 && !errors.Is(err, hog.ErrNoBlockPlane) {
					t.Fatalf("%dx%d %v: grid prepared before SetNorm: err %v, want ErrNoBlockPlane",
						img.W, img.H, norm, err)
				}
			}
			e.GridInto(&g, img)
			if g.CellsX != cellsX || g.CellsY != cellsY || g.Bins != NBins {
				t.Fatalf("%dx%d: grid %dx%dx%d, want %dx%dx%d",
					img.W, img.H, g.CellsX, g.CellsY, g.Bins, cellsX, cellsY, NBins)
			}
			for cy := 0; cy < g.CellsY; cy++ {
				for cx := 0; cx < g.CellsX; cx++ {
					if !reflect.DeepEqual(g.Hist(cx, cy), legacy[cy][cx]) {
						t.Fatalf("%dx%d: cell (%d,%d): GridInto %v, CellHistogram %v",
							img.W, img.H, cx, cy, g.Hist(cx, cy), legacy[cy][cx])
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
						t.Fatalf("%dx%d %v: window (%d,%d): len %d, assembly %d",
							img.W, img.H, norm, cx, cy, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%dx%d %v: window (%d,%d) component %d = %v, assembly %v",
								img.W, img.H, norm, cx, cy, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
