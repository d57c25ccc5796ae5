package hog

import "fmt"

// Grid is a flat, cache-friendly cell-histogram grid: Data holds
// CellsY x CellsX histograms of Bins values each, row-major with bins
// innermost (Data[(cy*CellsX+cx)*Bins + b]), in one backing array
// reusable across pyramid levels and images via Reset.
//
// Beyond the cell histograms a Grid owns the reusable kernel scratch of
// the blocked extractor passes (the SoA magnitude/bin/fraction planes
// and the fixed-point pixel plane) and, after an extractor's
// PrepareBlocks, a normalized per-block descriptor plane that
// DescriptorInto copies windows out of. The plane is keyed and
// validity-checked: DescriptorInto rejects a grid filled by hand
// (Reset + direct Data writes) until PrepareBlocks builds its plane.
// Callers that mutate Data directly after an extractor filled the grid
// must call InvalidateBlocks to drop the stale block plane.
//
// A Grid is owned by one scanning goroutine at a time while being
// filled; once filled it is safe for concurrent readers (the detect
// engine's window workers share one level grid read-only).
type Grid struct {
	CellsX, CellsY, Bins int
	Data                 []float64

	// SoA gradient planes for the blocked voting pass: per-pixel
	// magnitude, lower bin index, and interpolation fraction over the
	// covered cell region. Scratch only — contents are undefined
	// between GridInto calls.
	mag  []float64
	bin  []int32
	frac []float64

	// fx is the fixed-point pixel plane reused by FPGAExtractor.
	fx []int64

	// scratch backs ScratchPlane for extractors outside this package.
	scratch []float64

	// blocks is the fused normalize+descriptor plane; see blockPlane.
	blocks blockPlane
}

// blockPlane caches the block-normalized descriptor of every block
// position of the grid: nby x nbx blocks of blockLen values each,
// row-major ((by*nbx+bx)*blockLen). It is keyed by the extractor
// parameters that determine its values, so DescriptorInto can verify
// the plane was built for the asking configuration.
type blockPlane struct {
	valid      bool
	bins       int
	blockCells int
	norm       NormMode
	nbx, nby   int
	blockLen   int
	data       []float64
}

// Reset resizes the grid to cellsX x cellsY cells of bins values,
// reusing the backing array when it has capacity, and zeroes it. Any
// previously prepared block plane is invalidated.
func (g *Grid) Reset(cellsX, cellsY, bins int) {
	n := cellsX * cellsY * bins
	if cap(g.Data) < n {
		g.Data = make([]float64, n)
	} else {
		g.Data = g.Data[:n]
		for i := range g.Data {
			g.Data[i] = 0
		}
	}
	g.CellsX, g.CellsY, g.Bins = cellsX, cellsY, bins
	g.blocks.valid = false
}

// InvalidateBlocks drops the prepared block plane. Call it after
// mutating Data directly so DescriptorInto does not serve stale
// normalized blocks.
func (g *Grid) InvalidateBlocks() { g.blocks.valid = false }

// ScratchPlane returns a reusable float64 scratch plane of at least n
// values for extractor kernels to stage per-level intermediates
// (quantized pixel planes and the like) without per-call allocation.
// Contents are undefined; the plane aliases the grid, so it follows
// the grid's single-writer ownership rules.
func (g *Grid) ScratchPlane(n int) []float64 {
	if cap(g.scratch) < n {
		g.scratch = make([]float64, n)
	}
	return g.scratch[:n]
}

// fixedPlane returns the reusable int64 pixel plane of the fixed-point
// datapath model, resized to at least n values.
func (g *Grid) fixedPlane(n int) []int64 {
	if cap(g.fx) < n {
		g.fx = make([]int64, n)
	}
	return g.fx[:n]
}

// soaPlanes returns the gradient SoA planes (magnitude, lower bin,
// fraction) resized to at least n values. Contents are undefined.
func (g *Grid) soaPlanes(n int) (mag []float64, bin []int32, frac []float64) {
	if cap(g.mag) < n {
		g.mag = make([]float64, n)
	}
	if cap(g.bin) < n {
		g.bin = make([]int32, n)
	}
	if cap(g.frac) < n {
		g.frac = make([]float64, n)
	}
	return g.mag[:n], g.bin[:n], g.frac[:n]
}

// ensureBlocks sizes the block plane for nby x nbx blocks of blockLen
// values, reusing its backing array, and records the key under which
// it is being built. The plane stays invalid until the builder marks
// it; a panic mid-build therefore cannot leave a half-built plane
// serving descriptors.
func (g *Grid) ensureBlocks(nbx, nby, blockLen, bins, blockCells int, norm NormMode) []float64 {
	n := nbx * nby * blockLen
	if cap(g.blocks.data) < n {
		g.blocks.data = make([]float64, n)
	}
	g.blocks.data = g.blocks.data[:n]
	g.blocks.valid = false
	g.blocks.bins, g.blocks.blockCells = bins, blockCells
	g.blocks.norm = norm
	g.blocks.nbx, g.blocks.nby, g.blocks.blockLen = nbx, nby, blockLen
	return g.blocks.data
}

// blocksFor returns the prepared block plane if it is valid and was
// built for exactly this (bins, blockCells, norm) key.
func (g *Grid) blocksFor(bins, blockCells int, norm NormMode) *blockPlane {
	p := &g.blocks
	if !p.valid || p.bins != bins || p.blockCells != blockCells || p.norm != norm {
		return nil
	}
	return p
}

// Hist returns the histogram of cell (cx, cy) as a view into Data.
func (g *Grid) Hist(cx, cy int) []float64 {
	off := (cy*g.CellsX + cx) * g.Bins
	return g.Data[off : off+g.Bins]
}

// checkWindow validates that a window of cx x cy cells with bins-wide
// histograms fits g at top-left cell (cellX, cellY).
func (g *Grid) checkWindow(cellX, cellY, cx, cy, bins int) error {
	if bins != g.Bins {
		return fmt.Errorf("hog: grid has %d bins, extractor wants %d", g.Bins, bins)
	}
	if cellX < 0 || cellY < 0 || cellX+cx > g.CellsX || cellY+cy > g.CellsY {
		return fmt.Errorf("hog: window cells [%d:%d)x[%d:%d) outside grid %dx%d",
			cellX, cellX+cx, cellY, cellY+cy, g.CellsX, g.CellsY)
	}
	return nil
}
