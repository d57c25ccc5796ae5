// Partial-update plumbing for temporal detection: splicing freshly
// recomputed cell rows/columns into a persistent Grid, shifting a grid
// under integer-cell camera pan, and rebuilding only the affected
// region of the prepared block plane.
//
// The block plane stores the key it was built under (bins, block
// cells, norm mode), so a range rebuild reproduces exactly what the
// original builder would write for the new cell data without needing
// the extractor back — the same applyNorm PrepareBlocks uses, over the
// same contiguous cell-row copies. The
// plane's validity flag is the safety interlock: every mutator here
// refuses to touch an invalid plane (callers fall back to a full
// GridInto), and a grid whose Data was spliced without a matching
// RebuildBlockRange would serve stale descriptors, so the splice
// helpers invalidate the plane and RebuildBlockRange revalidates it.
package hog

// BlocksValid reports whether g carries a prepared block plane. The
// temporal engine uses it to decide between range rebuilds and a full
// extractor pass.
func (g *Grid) BlocksValid() bool { return g.blocks.valid }

// BlockCells returns the block side (in cells) the prepared plane was
// built with, or 0 when no plane is valid.
func (g *Grid) BlockCells() int {
	if !g.blocks.valid {
		return 0
	}
	return g.blocks.blockCells
}

// SpliceRows copies cell rows [r0, r1) of src into the same rows of g.
// Both grids must have identical CellsX and Bins; src may be shorter
// (a sub-image grid) in which case srcOff names the src row aligned
// with g row r0. The block plane is invalidated — callers follow up
// with RebuildBlockRange or a full PrepareBlocks.
//
//pcnn:hotpath
func (g *Grid) SpliceRows(src *Grid, srcOff, r0, r1 int) {
	if r0 < 0 || r1 > g.CellsY || r0 >= r1 {
		return
	}
	rowLen := g.CellsX * g.Bins
	copy(g.Data[r0*rowLen:r1*rowLen], src.Data[srcOff*rowLen:(srcOff+r1-r0)*rowLen])
	g.blocks.valid = false
}

// SpliceCols copies cell columns [c0, c1) of src into the same columns
// of g, over every cell row. src is a strip grid whose column srcOff
// aligns with g column c0; both must share CellsY and Bins. The block
// plane is invalidated.
//
//pcnn:hotpath
func (g *Grid) SpliceCols(src *Grid, srcOff, c0, c1 int) {
	if c0 < 0 || c1 > g.CellsX || c0 >= c1 {
		return
	}
	nb := g.Bins
	n := (c1 - c0) * nb
	for r := 0; r < g.CellsY; r++ {
		dst := (r*g.CellsX + c0) * nb
		so := (r*src.CellsX + srcOff) * nb
		copy(g.Data[dst:dst+n], src.Data[so:so+n])
	}
	g.blocks.valid = false
}

// RebuildBlockRange rebuilds block plane entries for block rows
// [br0, br1) x block columns [bc0, bc1) from the current cell Data,
// using the key the plane was originally built under, and marks the
// plane valid again. It reports false (leaving the plane invalid) when
// the plane was never built or its geometry no longer matches the
// grid; callers must then re-run the extractor's full PrepareBlocks.
//
// The per-block work is the exact PrepareBlocks kernel: contiguous
// cell-row copies into the block slot followed by the keyed
// normalization, so a range rebuild over fresh Data is bit-identical
// to a full rebuild.
//
//pcnn:hotpath
func (g *Grid) RebuildBlockRange(br0, bc0, br1, bc1 int) bool {
	p := &g.blocks
	bc := p.blockCells
	if bc <= 0 || p.bins != g.Bins ||
		p.nbx != g.CellsX-bc+1 || p.nby != g.CellsY-bc+1 ||
		len(p.data) != p.nbx*p.nby*p.blockLen {
		return false
	}
	if br0 < 0 {
		br0 = 0
	}
	if bc0 < 0 {
		bc0 = 0
	}
	if br1 > p.nby {
		br1 = p.nby
	}
	if bc1 > p.nbx {
		bc1 = p.nbx
	}
	nb := g.Bins
	cx := g.CellsX
	rowLen := bc * nb
	for by := br0; by < br1; by++ {
		for bx := bc0; bx < bc1; bx++ {
			off := (by*p.nbx + bx) * p.blockLen
			dst := p.data[off : off+p.blockLen]
			for j := 0; j < bc; j++ {
				src := ((by+j)*cx + bx) * nb
				copy(dst[j*rowLen:(j+1)*rowLen], g.Data[src:src+rowLen])
			}
			applyNorm(p.norm, dst)
		}
	}
	p.valid = true
	return true
}

// ShiftCells translates the grid contents by (-dxc, -dyc) cells — the
// grid view of a camera that panned (dxc, dyc) cells: new cell (x, y)
// takes the value of old cell (x+dxc, y+dyc). Cells whose source falls
// outside the old grid are left with stale values; callers must
// recompute the exposed strips (plus a one-cell margin, where border
// clamping changes) before use. The prepared block plane is shifted by
// the same offset so only the exposed block strips need rebuilding.
// Reports false without touching anything when no valid plane is
// present (the caller should fully recompute instead — shifting Data
// alone would save little and leave a grid DescriptorInto rejects).
//
//pcnn:hotpath
func (g *Grid) ShiftCells(dxc, dyc int) bool {
	p := &g.blocks
	if !p.valid {
		return false
	}
	if dxc == 0 && dyc == 0 {
		return true
	}
	shiftPlane(g.Data, g.CellsX, g.CellsY, g.Bins, dxc, dyc)
	shiftPlane(p.data, p.nbx, p.nby, p.blockLen, dxc, dyc)
	return true
}

// shiftPlane moves a row-major plane of ny x nx slots of width vals so
// that slot (x, y) receives old slot (x+dx, y+dy). Rows are walked in
// an order that never overwrites a yet-unread source (top-down when
// pulling from below, bottom-up when pulling from above), and each
// row move is a single copy, which Go defines as memmove for
// overlapping slices.
//
//pcnn:hotpath
func shiftPlane(data []float64, nx, ny, vals, dx, dy int) {
	if nx <= 0 || ny <= 0 {
		return
	}
	// Destination slot range with in-bounds sources.
	x0, x1 := 0, nx-dx
	if dx < 0 {
		x0, x1 = -dx, nx
	}
	if x0 < 0 {
		x0 = 0
	}
	if x1 > nx {
		x1 = nx
	}
	y0, y1 := 0, ny-dy
	if dy < 0 {
		y0, y1 = -dy, ny
	}
	if y0 < 0 {
		y0 = 0
	}
	if y1 > ny {
		y1 = ny
	}
	if x0 >= x1 || y0 >= y1 {
		return
	}
	rowN := (x1 - x0) * vals
	if dy >= 0 {
		for y := y0; y < y1; y++ {
			dst := (y*nx + x0) * vals
			src := ((y+dy)*nx + x0 + dx) * vals
			copy(data[dst:dst+rowN], data[src:src+rowN])
		}
	} else {
		for y := y1 - 1; y >= y0; y-- {
			dst := (y*nx + x0) * vals
			src := ((y+dy)*nx + x0 + dx) * vals
			copy(data[dst:dst+rowN], data[src:src+rowN])
		}
	}
}
