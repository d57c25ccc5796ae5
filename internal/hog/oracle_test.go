package hog

import (
	"fmt"

	"repro/internal/imgproc"
)

// Frozen oracle: the per-window descriptor assembly the extractors
// served before the block plane became the only descriptor path
// (Extractor.DescriptorFromGrid/DescriptorAt over Grid.Views). Every
// window re-assembles its blocks from the cell histograms and
// normalizes each one, so it shares no code with PrepareBlocks or
// DescriptorInto beyond applyNorm. Keep it unchanged: it is the
// reference the block plane is checked against.

// views re-exposes the flat grid in the legacy [][][]float64 indexing
// ([cy][cx][bin]); every histogram is a view sharing g.Data.
func views(g *Grid) [][][]float64 {
	rows := make([][][]float64, g.CellsY)
	for j := 0; j < g.CellsY; j++ {
		row := make([][]float64, g.CellsX)
		for i := 0; i < g.CellsX; i++ {
			row[i] = g.Hist(i, j)
		}
		rows[j] = row
	}
	return rows
}

// descriptorFromGrid assembles a window descriptor from the cell grid
// of a window-sized image: blocks in raster order, cells within each
// block in raster order, bins innermost, with per-block normalization.
func descriptorFromGrid(cfg Config, grid [][][]float64) ([]float64, error) {
	cx, cy := cfg.CellsX(), cfg.CellsY()
	if len(grid) != cy || cy == 0 || len(grid[0]) != cx {
		return nil, fmt.Errorf("hog: grid is %dx%d, want %dx%d",
			lenOr0(grid), len(grid), cx, cy)
	}
	bc, bs := cfg.BlockCells, cfg.BlockStride
	out := make([]float64, 0, cfg.DescriptorLen())
	for by := 0; by+bc <= cy; by += bs {
		for bx := 0; bx+bc <= cx; bx += bs {
			start := len(out)
			for j := 0; j < bc; j++ {
				for i := 0; i < bc; i++ {
					out = append(out, grid[by+j][bx+i]...)
				}
			}
			applyNorm(cfg.Norm, out[start:])
		}
	}
	return out, nil
}

func lenOr0(g [][][]float64) int {
	if len(g) == 0 {
		return 0
	}
	return len(g[0])
}

// descriptorAt computes the descriptor of the window whose top-left
// cell is (cellX, cellY) in a whole-image cell grid.
func descriptorAt(cfg Config, grid [][][]float64, cellX, cellY int) ([]float64, error) {
	cx, cy := cfg.CellsX(), cfg.CellsY()
	if cellY < 0 || cellX < 0 || cellY+cy > len(grid) || len(grid) == 0 || cellX+cx > len(grid[0]) {
		return nil, fmt.Errorf("hog: window cells [%d:%d)x[%d:%d) outside grid %dx%d",
			cellX, cellX+cx, cellY, cellY+cy, lenOr0(grid), len(grid))
	}
	sub := make([][][]float64, cy)
	for j := 0; j < cy; j++ {
		sub[j] = grid[cellY+j][cellX : cellX+cx]
	}
	return descriptorFromGrid(cfg, sub)
}

// gridExtractor is the extractor surface the tests drive; Extractor
// and FPGAExtractor both provide it.
type gridExtractor interface {
	Config() Config
	GridInto(g *Grid, img *imgproc.Image)
	DescriptorInto(dst []float64, g *Grid, cellX, cellY int) ([]float64, error)
}

// descriptor returns the descriptor of the window at cell (0, 0) of
// img's grid — the whole image when img is window-sized.
func descriptor(e gridExtractor, img *imgproc.Image) ([]float64, error) {
	var g Grid
	e.GridInto(&g, img)
	return e.DescriptorInto(nil, &g, 0, 0)
}
