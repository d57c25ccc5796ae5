// Temporal detection: cross-frame reuse with dirty-region tracking,
// bit-identical to independent per-frame scans.
//
// A Sequence keeps the whole per-frame scan state alive between
// frames: the pyramid level images, the per-level cell grids with
// their prepared block planes, and per-window-row caches of the raw
// (pre-NMS) detections. Each new frame is diffed against the previous
// one row by row; the changed pixel rows are mapped through the
// bilinear resize to every pyramid level (each output row of the
// resize depends on at most two source rows, so staleness propagates
// exactly), dilated to dirty cell rows covering the gradient and
// spatial-interpolation reach, and only those cell rows are re-run
// through the extractor — as full-width sub-image views spliced back
// into the persistent grid, with the prepared block plane rebuilt over
// just the affected block rows. Window rows whose cell span contains
// no dirty row are served wholesale from the previous frame's raw
// detections; rows that are dirty rescan only the windows overlapping
// the dirty cell-column extent and merge the rest from the cache.
// NMS then runs over the merged candidate set, which is — by
// construction, window for window — the exact multiset a from-scratch
// scan would feed it.
//
// Camera pan is handled as an integer-cell shift when the reported
// offset is cell- and stride-aligned: the level-0 grid and block plane
// are shifted in place, the exposed strips (plus the border cells
// whose replicate-clamped neighborhoods changed) are recomputed, the
// pan hint is verified pixel-by-pixel against the previous frame (rows
// that do not match the claimed shift are simply treated as dirty),
// and cached window scores are reused with their boxes translated.
// Deeper pyramid levels fully recompute under pan — bilinear
// resampling is not bit-stable under index shifts, so there is nothing
// sound to reuse there. Fractional (non-aligned) pan hints fall back
// to the plain diff, which degrades to a full recompute.
//
// The reuse logic never trusts hints for correctness: reused cells are
// only ever cells whose underlying pixels compared equal (or verified
// shifted-equal), and compare-equal float64 pixels propagate through
// the deterministic extractor and scorer to ==-equal detections.
package detect

import (
	"math"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/obs"
)

// Row classification for one frame: how a window row's detections are
// produced.
const (
	seqRowClean uint8 = iota // copy every window from the previous frame's cache
	seqRowMixed              // rescan windows overlapping dirty cell columns, copy the rest
	seqRowFull               // rescan every window
)

// seqLevel is the persistent per-pyramid-level state of a Sequence.
type seqLevel struct {
	w, h  int     // level image dimensions
	scale float64 // math.Pow(factor, level): maps level to image coords exactly as detectRaw
	img   *imgproc.Image
	grid  hog.Grid
	sub   imgproc.Image // reusable full-width sub-view into img (borrows img.Pix)

	cellsX, cellsY int
	nRows, nCols   int // window grid in stride units

	changed  []bool  // pixel rows that differ from the previous frame
	chPre    []int32 // prefix sums over changed
	dirty    []bool  // dirty cell rows
	dPre     []int32 // prefix sums over dirty
	rowClass []uint8 // per window row, one of seqRow*

	// Dirty cell-column ranges (conservative; at most two: the motion
	// extent, plus the far-edge sliver under horizontal pan).
	colRanges  [2][2]int
	nColRanges int

	// Window-score reuse geometry for this frame: new window row r /
	// window cell column gx sources row r+srcRowDelta / column
	// gx+srcColDelta of the previous frame, and copied boxes move by
	// (adjX, adjY) pixels. All zero except under aligned pan at level 0.
	pan                      bool
	srcRowDelta, srcColDelta int
	adjX, adjY               int

	// Double-buffered raw detection cache: dets[cur] holds the previous
	// frame's raw (pre-NMS) detections of this level; row r occupies
	// dets[cur][rowStart[cur][r]:rowStart[cur][r+1]].
	dets     [2][]Detection
	rowStart [2][]int32
	cur      int
}

// Sequence is the temporal detection engine for one stream of
// equally-sized frames. Create one with Detector.NewSequence and feed
// frames through Next/NextPanned; a Sequence is not safe for
// concurrent use, and the slice Next returns is only valid until the
// next call. Reuse requires a deterministic extractor — the same
// exception as DetectStream (parrot stochastic coding) applies, since
// it can score identical pixels differently between frames.
type Sequence struct {
	d      *Detector
	lv     []*seqLevel
	primed bool

	ws        []workerScratch
	subGrid   hog.Grid      // scratch grid for full-width row-run recompute
	strip     imgproc.Image // owned pixel strip for column-run recompute
	stripGrid hog.Grid

	workRows []int32    // this level's non-clean window rows
	rowLens  []int32    // per window row, detections produced by workers
	bnd      []int32    // worker bucket boundaries over workRows
	cw       []int32    // per-worker assembly cursors
	runs     [][2]int32 // dirty cell-row runs scratch

	raw []Detection // this frame's merged raw candidates, scan order
	out []Detection // NMS output returned to the caller

	winW, winH   int
	totalWindows uint64
	bx0, bx1     int // base-frame changed pixel-column extent

	// Per-frame telemetry accumulators.
	frCells   uint64
	frSkipped uint64

	frames  uint64
	elapsed time.Duration
}

// NewSequence returns a temporal detection engine bound to d. Frame
// geometry is fixed on first use; feeding a frame of different
// dimensions reinitializes the state (a full recompute).
func (d *Detector) NewSequence() *Sequence { return &Sequence{d: d} }

// Reset drops all cross-frame state, forcing the next frame through a
// full recompute. Buffers are kept.
func (s *Sequence) Reset() { s.primed = false }

// DetectSequence runs the temporal engine over a frame sequence,
// returning per-frame NMS-filtered detections. Frame PanX/PanY hints
// enable shift reuse when cell-aligned; output is bit-identical to
// calling Detect on every frame independently, for any hints.
func (d *Detector) DetectSequence(frames []dataset.Frame) [][]Detection {
	seq := d.NewSequence()
	out := make([][]Detection, len(frames))
	for i, f := range frames {
		dets := seq.NextPanned(f.Image, f.PanX, f.PanY)
		out[i] = append([]Detection(nil), dets...)
	}
	return out
}

// Next scans the next frame of the sequence and returns its
// NMS-filtered detections, identical to Detect(img). The returned
// slice is reused by the following call.
func (s *Sequence) Next(img *imgproc.Image) []Detection { return s.NextPanned(img, 0, 0) }

// NextPanned is Next with a camera-pan hint: the new frame claims
// new[x, y] = prev[x+panX, y+panY] over the overlap. The hint is
// verified, never trusted — a wrong hint costs speed, not correctness.
func (s *Sequence) NextPanned(img *imgproc.Image, panX, panY int) []Detection {
	if img == nil {
		return nil
	}
	cfg := s.d.Config
	measured := obs.Enabled()
	var t0 time.Time
	if measured {
		t0 = time.Now()
	}
	if len(s.lv) == 0 || s.lv[0].w != img.W || s.lv[0].h != img.H {
		s.init(img.W, img.H)
	}
	workers := cfg.effectiveWorkers()
	if len(s.ws) < workers {
		s.ws = append(s.ws, make([]workerScratch, workers-len(s.ws))...)
	}
	for b := range s.ws {
		s.ws[b].windows, s.ws[b].errs = 0, 0
	}
	s.frCells, s.frSkipped = 0, 0
	s.raw = s.raw[:0]

	base := s.lv[0]
	pan := false
	if s.primed && (panX != 0 || panY != 0) {
		pan = s.tryPan(img, panX, panY)
	}
	if !pan {
		if s.primed {
			s.diffPlain(img)
		} else {
			for y := range base.changed {
				base.changed[y] = true
			}
			s.bx0, s.bx1 = 0, base.w
			copy(base.img.Pix, img.Pix)
		}
		base.buildChPre()
		base.computeDirty(cfg.CellSize)
		base.pan, base.srcRowDelta, base.srcColDelta, base.adjX, base.adjY = false, 0, 0, 0, 0
		s.levelColRange(base)
		s.updateGrid(base, false)
	}
	s.scanLevel(base, workers)
	for li := 1; li < len(s.lv); li++ {
		lv := s.lv[li]
		s.refreshLevelImage(lv, pan)
		lv.buildChPre()
		lv.computeDirty(cfg.CellSize)
		lv.pan, lv.srcRowDelta, lv.srcColDelta, lv.adjX, lv.adjY = false, 0, 0, 0, 0
		s.levelColRange(lv)
		s.updateGrid(lv, false)
		s.scanLevel(lv, workers)
	}
	s.primed = true

	s.out = NMSInto(s.out[:0], s.raw, cfg.NMSEpsilon)

	var scanned, errs uint64
	for b := range s.ws {
		scanned += s.ws[b].windows
		errs += s.ws[b].errs
	}
	if errs > 0 {
		s.d.descErrors.Add(errs)
	}
	if measured {
		s.frames++
		s.elapsed += time.Since(t0)
		obs.GaugeM("detect.workers").Set(float64(workers))
		obs.CounterM("detect.frames").Inc()
		obs.CounterM("detect.bands_skipped").Add(s.frSkipped)
		obs.CounterM("detect.cells_recomputed").Add(s.frCells)
		obs.CounterM("detect.windows_scanned").Add(scanned)
		obs.CounterM("detect.nms_in").Add(uint64(len(s.raw)))
		obs.CounterM("detect.nms_out").Add(uint64(len(s.out)))
		if s.totalWindows > 0 {
			obs.BucketHistogramM("detect.reuse_ratio", obs.RatioBuckets).
				Observe(1 - float64(scanned)/float64(s.totalWindows))
		}
		if secs := s.elapsed.Seconds(); secs > 0 {
			obs.GaugeM("detect.frames_per_sec").Set(float64(s.frames) / secs)
		}
	}
	return s.out
}

// init sizes every persistent buffer for w x h frames. Level
// dimensions follow imgproc.Pyramid (running-product scale for sizes);
// box scaling uses math.Pow exactly like detectRaw, so coordinates
// round identically.
func (s *Sequence) init(w, h int) {
	cfg := s.d.Config
	s.winW = cfg.WindowCellsX * cfg.CellSize
	s.winH = cfg.WindowCellsY * cfg.CellSize
	s.lv = s.lv[:0]
	s.primed = false
	s.totalWindows = 0
	sizeScale := 1.0
	maxRows, maxCellsY := 0, 0
	for li := 0; ; li++ {
		if cfg.MaxLevels > 0 && li >= cfg.MaxLevels {
			break
		}
		lw, lh := w, h
		if li > 0 {
			sizeScale *= cfg.ScaleFactor
			lw = int(math.Round(float64(w) / sizeScale))
			lh = int(math.Round(float64(h) / sizeScale))
			if lw < s.winW || lh < s.winH {
				break
			}
		}
		lv := &seqLevel{w: lw, h: lh, scale: math.Pow(cfg.ScaleFactor, float64(li))}
		lv.img = imgproc.New(lw, lh)
		cs := cfg.CellSize
		lv.cellsX, lv.cellsY = lw/cs, lh/cs
		if lv.cellsX >= cfg.WindowCellsX && lv.cellsY >= cfg.WindowCellsY {
			lv.nRows = (lv.cellsY-cfg.WindowCellsY)/cfg.StrideCells + 1
			lv.nCols = (lv.cellsX-cfg.WindowCellsX)/cfg.StrideCells + 1
		}
		lv.changed = make([]bool, lh)
		lv.chPre = make([]int32, lh+1)
		lv.dirty = make([]bool, lv.cellsY)
		lv.dPre = make([]int32, lv.cellsY+1)
		lv.rowClass = make([]uint8, lv.nRows)
		lv.rowStart[0] = make([]int32, 0, lv.nRows+1)
		lv.rowStart[1] = make([]int32, 0, lv.nRows+1)
		s.totalWindows += uint64(lv.nRows) * uint64(lv.nCols)
		if lv.nRows > maxRows {
			maxRows = lv.nRows
		}
		if lv.cellsY > maxCellsY {
			maxCellsY = lv.cellsY
		}
		s.lv = append(s.lv, lv)
	}
	if cap(s.workRows) < maxRows {
		s.workRows = make([]int32, 0, maxRows)
	}
	if len(s.rowLens) < maxRows {
		s.rowLens = make([]int32, maxRows)
	}
	if cap(s.runs) < maxCellsY {
		s.runs = make([][2]int32, 0, maxCellsY)
	}
}

// diffPlain compares the new frame against the previous one (held in
// the level-0 image) row by row, recording changed rows and their
// column extent, and copies only the differing spans in.
func (s *Sequence) diffPlain(img *imgproc.Image) {
	base := s.lv[0]
	bw := base.w
	s.bx0, s.bx1 = bw, 0
	for y := 0; y < base.h; y++ {
		off := y * bw
		prow := base.img.Pix[off : off+bw]
		nrow := img.Pix[off : off+bw]
		a := -1
		for x, v := range nrow {
			if prow[x] != v {
				a = x
				break
			}
		}
		if a < 0 {
			base.changed[y] = false
			continue
		}
		b := bw - 1
		for b > a && prow[b] == nrow[b] {
			b--
		}
		base.changed[y] = true
		if a < s.bx0 {
			s.bx0 = a
		}
		if b+1 > s.bx1 {
			s.bx1 = b + 1
		}
		copy(prow[a:b+1], nrow[a:b+1])
	}
}

// tryPan attempts the aligned-pan fast path at level 0. On success the
// base level's change state, grid, and reuse geometry are fully set up
// and true is returned; on any precondition failure nothing has been
// mutated and the caller falls back to the plain diff.
func (s *Sequence) tryPan(img *imgproc.Image, panX, panY int) bool {
	base := s.lv[0]
	cfg := s.d.Config
	cs := cfg.CellSize
	if panX%cs != 0 || panY%cs != 0 {
		return false
	}
	dxc, dyc := panX/cs, panY/cs
	if dxc%cfg.StrideCells != 0 || dyc%cfg.StrideCells != 0 {
		return false
	}
	if iabs(dxc) >= base.cellsX || iabs(dyc) >= base.cellsY {
		return false
	}
	if !base.grid.BlocksValid() {
		return false
	}
	bw, bh := base.w, base.h
	ox0, ox1 := 0, bw-panX
	if panX < 0 {
		ox0, ox1 = -panX, bw
	}
	oy0, oy1 := 0, bh-panY
	if panY < 0 {
		oy0, oy1 = -panY, bh
	}
	if ox0 >= ox1 || oy0 >= oy1 {
		return false
	}
	// Verify the hint row by row over the overlap; rows that do not
	// match the claimed shift are dirty, exposed rows always are.
	for y := 0; y < bh; y++ {
		if y < oy0 || y >= oy1 {
			base.changed[y] = true
			continue
		}
		prow := base.img.Pix[(y+panY)*bw:]
		nrow := img.Pix[y*bw:]
		ch := false
		for x := ox0; x < ox1; x++ {
			if nrow[x] != prow[x+panX] {
				ch = true
				break
			}
		}
		base.changed[y] = ch
	}
	copy(base.img.Pix, img.Pix)
	base.grid.ShiftCells(dxc, dyc) // plane valid, cannot fail
	base.buildChPre()
	base.computeDirty(cs)
	// Shift-induced dirty rows: border cell rows whose replicate-clamp
	// neighborhoods changed (both the new borders and the old border
	// rows now landing in the interior), and the exposed strip.
	cy := base.cellsY
	if dyc != 0 {
		base.markDirty(0, 2)
		base.markDirty(cy-2, cy)
		if dyc > 0 {
			base.markDirty(cy-dyc-2, cy)
		} else {
			base.markDirty(0, -dyc+2)
		}
	}
	base.nColRanges = 0
	cx := base.cellsX
	if dxc > 0 {
		base.addColRange(0, 2)
		base.addColRange(cx-dxc-2, cx)
	} else if dxc < 0 {
		base.addColRange(0, -dxc+2)
		base.addColRange(cx-2, cx)
	}
	s.updateGrid(base, true)
	base.pan = true
	base.srcRowDelta = dyc / cfg.StrideCells
	base.srcColDelta = dxc
	base.adjX, base.adjY = -panX, -panY
	// Deeper levels resample moved content: everything there is stale.
	s.bx0, s.bx1 = 0, bw
	return true
}

// refreshLevelImage brings a deeper level's image up to date with the
// already-updated base image, recomputing only the output rows whose
// bilinear source rows changed (forceAll recomputes everything — used
// under pan, where every base pixel moved).
func (s *Sequence) refreshLevelImage(lv *seqLevel, forceAll bool) {
	base := s.lv[0]
	if forceAll {
		for y := range lv.changed {
			lv.changed[y] = true
		}
		imgproc.ResizeRowsInto(lv.img, base.img, 0, lv.h)
		return
	}
	sy := float64(base.h) / float64(lv.h)
	for y := 0; y < lv.h; y++ {
		iy := int(math.Floor((float64(y)+0.5)*sy - 0.5))
		r0, r1 := iy, iy+1
		if r0 < 0 {
			r0 = 0
		}
		if r0 >= base.h {
			r0 = base.h - 1
		}
		if r1 < 0 {
			r1 = 0
		}
		if r1 >= base.h {
			r1 = base.h - 1
		}
		lv.changed[y] = base.changed[r0] || base.changed[r1]
	}
	for y := 0; y < lv.h; {
		if !lv.changed[y] {
			y++
			continue
		}
		y1 := y + 1
		for y1 < lv.h && lv.changed[y1] {
			y1++
		}
		imgproc.ResizeRowsInto(lv.img, base.img, y, y1)
		y = y1
	}
}

// levelColRange maps the base frame's changed pixel-column extent to a
// conservative dirty cell-column range of lv, covering the bilinear
// column support plus the gradient and cell-interpolation reach.
func (s *Sequence) levelColRange(lv *seqLevel) {
	if s.bx1 <= s.bx0 {
		lv.nColRanges = 0
		return
	}
	cs := s.d.Config.CellSize
	lx0, lx1 := s.bx0, s.bx1
	if lv != s.lv[0] {
		sx := float64(s.lv[0].w) / float64(lv.w)
		lx0 = int(math.Floor((float64(s.bx0)-0.5)/sx-0.5)) - 1
		lx1 = int(math.Ceil((float64(s.bx1)+0.5)/sx+0.5)) + 1
	}
	lv.nColRanges = 0
	lv.addColRange(floorDiv(lx0, cs)-2, floorDiv(lx1-1, cs)+3)
}

// buildChPre fills the prefix sums over changed pixel rows.
func (lv *seqLevel) buildChPre() {
	p := int32(0)
	lv.chPre[0] = 0
	for y, c := range lv.changed {
		if c {
			p++
		}
		lv.chPre[y+1] = p
	}
}

// computeDirty marks cell row r dirty when any changed pixel row lies
// in [(r-1)*cs-1, (r+2)*cs]: the cell's own pixels, the +-1-pixel
// gradient reach, and the +-1-cell spatial-interpolation voting reach
// — uniform across all four extractor families.
func (lv *seqLevel) computeDirty(cs int) {
	h := lv.h
	for r := 0; r < lv.cellsY; r++ {
		a := (r-1)*cs - 1
		if a < 0 {
			a = 0
		}
		b := (r+2)*cs + 1
		if b > h {
			b = h
		}
		lv.dirty[r] = lv.chPre[b]-lv.chPre[a] > 0
	}
}

// markDirty sets cell rows [r0, r1) dirty, clamped to the grid.
func (lv *seqLevel) markDirty(r0, r1 int) {
	if r0 < 0 {
		r0 = 0
	}
	if r1 > lv.cellsY {
		r1 = lv.cellsY
	}
	for r := r0; r < r1; r++ {
		lv.dirty[r] = true
	}
}

// addColRange records a dirty cell-column range, clamped, merging with
// an existing overlapping or adjacent range to keep at most two.
func (lv *seqLevel) addColRange(c0, c1 int) {
	if c0 < 0 {
		c0 = 0
	}
	if c1 > lv.cellsX {
		c1 = lv.cellsX
	}
	if c0 >= c1 {
		return
	}
	for k := 0; k < lv.nColRanges; k++ {
		if c0 <= lv.colRanges[k][1] && c1 >= lv.colRanges[k][0] {
			if c0 < lv.colRanges[k][0] {
				lv.colRanges[k][0] = c0
			}
			if c1 > lv.colRanges[k][1] {
				lv.colRanges[k][1] = c1
			}
			return
		}
	}
	if lv.nColRanges < len(lv.colRanges) {
		lv.colRanges[lv.nColRanges] = [2]int{c0, c1}
		lv.nColRanges++
		return
	}
	// Overflow: widen the nearest range (conservative).
	k := lv.nColRanges - 1
	if c0 < lv.colRanges[k][0] {
		lv.colRanges[k][0] = c0
	}
	if c1 > lv.colRanges[k][1] {
		lv.colRanges[k][1] = c1
	}
}

// updateGrid refreshes lv.grid for the current lv.img. Dirty cell rows
// are recomputed through full-width cell-aligned sub-image views (one
// margin cell row on each interior side absorbs the view's border
// clamping; one extra bottom pixel row replicates the kernels' read
// past the cell region) and spliced back; the prepared block plane is
// rebuilt over just the affected block rows. colSplices additionally
// recomputes the level's dirty cell-column ranges through copied
// pixel strips (the pan path, where exposed columns cut across every
// row). When the whole grid is dirty, or no block plane exists to
// rebuild, it falls back to a plain full GridInto.
func (s *Sequence) updateGrid(lv *seqLevel, colSplices bool) {
	cfg := s.d.Config
	cs := cfg.CellSize
	bc := lv.grid.BlockCells() // captured before splices invalidate the plane
	nDirty := int(0)
	for _, d := range lv.dirty {
		if d {
			nDirty++
		}
	}
	if nDirty == 0 && !colSplices {
		return
	}
	if nDirty == lv.cellsY || bc == 0 {
		s.d.Extractor.GridInto(&lv.grid, lv.img)
		s.frCells += uint64(lv.cellsX) * uint64(lv.cellsY)
		return
	}
	s.runs = s.runs[:0]
	for r := 0; r < lv.cellsY; {
		if !lv.dirty[r] {
			r++
			continue
		}
		r1 := r + 1
		for r1 < lv.cellsY && lv.dirty[r1] {
			r1++
		}
		s.runs = append(s.runs, [2]int32{int32(r), int32(r1)})
		r = r1
	}
	for _, run := range s.runs {
		r0, r1 := int(run[0]), int(run[1])
		s0, s1 := r0-1, r1+1
		if s0 < 0 {
			s0 = 0
		}
		if s1 > lv.cellsY {
			s1 = lv.cellsY
		}
		py0, py1 := s0*cs, s1*cs
		if py1 < lv.h {
			py1++
		}
		lv.sub.W, lv.sub.H = lv.w, py1-py0
		lv.sub.Pix = lv.img.Pix[py0*lv.w : py1*lv.w]
		s.d.Extractor.GridInto(&s.subGrid, &lv.sub)
		if s.subGrid.CellsX != lv.cellsX || s.subGrid.Bins != lv.grid.Bins {
			// Unexpected geometry from the extractor: recompute fully.
			s.d.Extractor.GridInto(&lv.grid, lv.img)
			s.frCells += uint64(lv.cellsX) * uint64(lv.cellsY)
			return
		}
		lv.grid.SpliceRows(&s.subGrid, r0-s0, r0, r1)
		s.frCells += uint64(r1-r0) * uint64(lv.cellsX)
	}
	if colSplices {
		for k := 0; k < lv.nColRanges; k++ {
			s.spliceColRange(lv, lv.colRanges[k][0], lv.colRanges[k][1])
		}
	}
	nby := lv.cellsY - bc + 1
	ok := true
	for _, run := range s.runs {
		br0, br1 := int(run[0])-bc+1, int(run[1])
		if br0 < 0 {
			br0 = 0
		}
		if br1 > nby {
			br1 = nby
		}
		if br0 < br1 && !lv.grid.RebuildBlockRange(br0, 0, br1, lv.cellsX) {
			ok = false
			break
		}
	}
	if ok && colSplices {
		for k := 0; k < lv.nColRanges; k++ {
			bc0 := lv.colRanges[k][0] - bc + 1
			if bc0 < 0 {
				bc0 = 0
			}
			if !lv.grid.RebuildBlockRange(0, bc0, nby, lv.colRanges[k][1]) {
				ok = false
				break
			}
		}
	}
	if ok && !lv.grid.BlocksValid() {
		// Every splice was rebuilt but the validity flag is still down
		// (all rebuild ranges clipped empty): an empty rebuild
		// revalidates without touching any block.
		ok = lv.grid.RebuildBlockRange(0, 0, 0, 0)
	}
	if !ok {
		s.d.Extractor.GridInto(&lv.grid, lv.img)
		s.frCells += uint64(lv.cellsX) * uint64(lv.cellsY)
	}
}

// spliceColRange recomputes cell columns [c0, c1) of lv through a
// copied pixel strip with one margin cell column on each interior side
// (plus one extra pixel column on an interior right edge), full
// height, and splices the interior columns back into the grid.
func (s *Sequence) spliceColRange(lv *seqLevel, c0, c1 int) {
	if c0 >= c1 {
		return
	}
	cs := s.d.Config.CellSize
	c0m, c1m := c0-1, c1+1
	if c0m < 0 {
		c0m = 0
	}
	if c1m > lv.cellsX {
		c1m = lv.cellsX
	}
	px0, px1 := c0m*cs, c1m*cs
	if px1 < lv.w {
		px1++
	}
	sw := px1 - px0
	need := sw * lv.h
	if cap(s.strip.Pix) < need {
		s.strip.Pix = make([]float64, need)
	}
	s.strip.Pix = s.strip.Pix[:need]
	s.strip.W, s.strip.H = sw, lv.h
	for y := 0; y < lv.h; y++ {
		copy(s.strip.Pix[y*sw:(y+1)*sw], lv.img.Pix[y*lv.w+px0:y*lv.w+px1])
	}
	s.d.Extractor.GridInto(&s.stripGrid, &s.strip)
	if s.stripGrid.CellsY != lv.cellsY || s.stripGrid.Bins != lv.grid.Bins {
		s.d.Extractor.GridInto(&lv.grid, lv.img)
		s.frCells += uint64(lv.cellsX) * uint64(lv.cellsY)
		return
	}
	lv.grid.SpliceCols(&s.stripGrid, c0-c0m, c0, c1)
	s.frCells += uint64(c1-c0) * uint64(lv.cellsY)
}

// scanLevel classifies every window row of lv, rescans the non-clean
// rows across the worker pool, and assembles the level's raw candidate
// list in exact (row, col) scan order — clean rows copied from the
// previous frame's cache, worker output merged in row order.
func (s *Sequence) scanLevel(lv *seqLevel, workers int) {
	if lv.nRows <= 0 {
		return
	}
	cfg := s.d.Config
	wcy, stride := cfg.WindowCellsY, cfg.StrideCells
	p := int32(0)
	lv.dPre[0] = 0
	for r, d := range lv.dirty {
		if d {
			p++
		}
		lv.dPre[r+1] = p
	}
	allCols := lv.nColRanges == 1 &&
		lv.colRanges[0][0] <= 0 && lv.colRanges[0][1] >= lv.cellsX
	s.workRows = s.workRows[:0]
	for r := 0; r < lv.nRows; r++ {
		gy := r * stride
		rowDirty := lv.dPre[gy+wcy]-lv.dPre[gy] > 0
		var class uint8
		switch {
		case rowDirty && (lv.pan || allCols || lv.nColRanges == 0):
			class = seqRowFull
		case rowDirty:
			class = seqRowMixed
		case lv.nColRanges > 0 && lv.pan:
			class = seqRowMixed
		default:
			class = seqRowClean
		}
		if class != seqRowFull && lv.srcRowDelta != 0 {
			if src := r + lv.srcRowDelta; src < 0 || src >= lv.nRows {
				class = seqRowFull
			}
		}
		lv.rowClass[r] = class
		if class == seqRowClean {
			s.frSkipped++
		} else {
			s.workRows = append(s.workRows, int32(r))
		}
	}
	n := len(s.workRows)
	w := workers
	if w > n {
		w = n
	}
	if n > 0 {
		if len(s.bnd) < w+1 {
			s.bnd = append(s.bnd, make([]int32, w+1-len(s.bnd))...)
		}
		for b := 0; b <= w; b++ {
			s.bnd[b] = int32(b * n / w)
		}
		if w <= 1 {
			sc := &s.ws[0]
			sc.dets = sc.dets[:0]
			s.scanRows(sc, lv, 0, n)
		} else {
			var wg sync.WaitGroup
			for b := 0; b < w; b++ {
				sc := &s.ws[b]
				i0, i1 := int(s.bnd[b]), int(s.bnd[b+1])
				wg.Add(1)
				go func() {
					defer wg.Done()
					sc.dets = sc.dets[:0]
					s.scanRows(sc, lv, i0, i1)
				}()
			}
			wg.Wait()
		}
	}
	// Assembly: rows in order, clean rows from the previous buffer,
	// worker rows consumed through per-worker cursors (workers own
	// contiguous ascending row buckets, so a single cursor each).
	nxt := 1 - lv.cur
	nd := lv.dets[nxt][:0]
	nrs := append(lv.rowStart[nxt][:0], 0)
	prevDets := lv.dets[lv.cur]
	prevRS := lv.rowStart[lv.cur]
	if len(s.cw) < w {
		s.cw = append(s.cw, make([]int32, w-len(s.cw))...)
	}
	for b := 0; b < w; b++ {
		s.cw[b] = 0
	}
	wrIdx, bkt := 0, 0
	for r := 0; r < lv.nRows; r++ {
		if lv.rowClass[r] == seqRowClean {
			src := r + lv.srcRowDelta
			seg := prevDets[prevRS[src]:prevRS[src+1]]
			if lv.adjX == 0 && lv.adjY == 0 {
				nd = append(nd, seg...)
			} else {
				for _, det := range seg {
					det.Box.X += lv.adjX
					det.Box.Y += lv.adjY
					nd = append(nd, det)
				}
			}
		} else {
			for wrIdx >= int(s.bnd[bkt+1]) {
				bkt++
			}
			m := int(s.rowLens[r])
			cur := int(s.cw[bkt])
			nd = append(nd, s.ws[bkt].dets[cur:cur+m]...)
			s.cw[bkt] += int32(m)
			wrIdx++
		}
		nrs = append(nrs, int32(len(nd)))
	}
	lv.dets[nxt], lv.rowStart[nxt] = nd, nrs
	lv.cur = nxt
	s.raw = append(s.raw, nd...)
}

// scanRows processes workRows[i0:i1) into sc, recording per-row
// detection counts. Runs concurrently with other workers over the same
// read-only grid and caches; everything written is worker-private
// (rowLens entries are distinct per row).
//
//pcnn:hotpath
func (s *Sequence) scanRows(sc *workerScratch, lv *seqLevel, i0, i1 int) {
	for i := i0; i < i1; i++ {
		r := int(s.workRows[i])
		n0 := len(sc.dets)
		s.scanSeqRow(sc, lv, r)
		s.rowLens[r] = int32(len(sc.dets) - n0)
	}
}

// scanSeqRow emits window row r's detections in column order: a full
// row rescans every window; a mixed row rescans only windows
// overlapping the dirty cell-column ranges and merges the rest from
// the previous frame's cache by source box position. The loop is
// allocation-free once sc's buffers are warm.
//
//pcnn:hotpath
func (s *Sequence) scanSeqRow(sc *workerScratch, lv *seqLevel, r int) {
	d := s.d
	cfg := d.Config
	g := &lv.grid
	gy := r * cfg.StrideCells
	full := lv.rowClass[r] == seqRowFull
	var prev []Detection
	pc := 0
	if !full {
		src := r + lv.srcRowDelta
		rs := lv.rowStart[lv.cur]
		prev = lv.dets[lv.cur][rs[src]:rs[src+1]]
	}
	wcx := cfg.WindowCellsX
	for gx := 0; gx+wcx <= g.CellsX; gx += cfg.StrideCells {
		if !full {
			hit := false
			for k := 0; k < lv.nColRanges; k++ {
				if gx < lv.colRanges[k][1] && gx+wcx > lv.colRanges[k][0] {
					hit = true
					break
				}
			}
			if !hit {
				srcX := int(float64((gx+lv.srcColDelta)*cfg.CellSize) * lv.scale)
				for pc < len(prev) && prev[pc].Box.X < srcX {
					pc++
				}
				if pc < len(prev) && prev[pc].Box.X == srcX {
					det := prev[pc]
					pc++
					det.Box.X += lv.adjX
					det.Box.Y += lv.adjY
					sc.dets = append(sc.dets, det)
				}
				continue
			}
		}
		sc.windows++
		desc, err := d.Extractor.DescriptorInto(sc.desc[:0], g, gx, gy)
		if err != nil {
			sc.errs++
			continue
		}
		sc.desc = desc
		score := d.Scorer.Score(desc)
		if score < cfg.Threshold {
			continue
		}
		sc.dets = append(sc.dets, Detection{
			Box: dataset.Box{
				X: int(float64(gx*cfg.CellSize) * lv.scale),
				Y: int(float64(gy*cfg.CellSize) * lv.scale),
				W: int(float64(s.winW) * lv.scale),
				H: int(float64(s.winH) * lv.scale),
			},
			Score: score,
		})
	}
}

// iabs returns |v|.
func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
