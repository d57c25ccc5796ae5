// Temporal detection: cross-frame reuse with dirty-region tracking,
// bit-identical to independent per-frame scans. This is the package's
// one scan engine: Detect runs a cold frame of it (parallel.go).
//
// A Sequence keeps the per-frame scan state alive between frames: the
// previous frame at level 0, the per-level cell grids with their
// prepared block planes, and per-window-row caches of the raw
// (pre-NMS) detections. Deeper pyramid levels keep no image. Each new
// frame is diffed against the previous one row by row; the changed
// pixel rows are mapped through the bilinear resize to every pyramid
// level (each output row of the resize depends on at most two source
// rows, so staleness propagates exactly), dilated to dirty cell rows
// covering the gradient and spatial-interpolation reach, and only those
// cell rows are re-run through the extractor — as full-width sub-image
// views spliced back into the persistent grid, with the prepared block
// plane rebuilt over just the affected block rows. At a deeper level
// the worker first resizes the pixel rows such a view reads from level
// 0 into its own buffer. Window rows whose cell span contains no dirty
// row are served wholesale from the previous frame's raw detections;
// rows that are dirty rescan only the windows overlapping the dirty
// cell-column extent and merge the rest from the cache. NMS then runs
// over the merged candidate set, which is — by construction, window for
// window — the exact multiset a from-scratch scan would feed it.
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
//
// Every frame, warm or cold, runs one body (frame): rebuild the levels
// when the frame size or the Config changed, run the level-0 diff, pan
// check or cold start serially on the caller, then let the worker pool
// claim whole levels (runLevels). The worker that claims a level marks
// its changed rows, updates its grid and scans its rows into the
// level's own detection slice (runLevel). Levels merge in level order
// after the join.
package detect

import (
	"fmt"
	"math"
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

// seqLevel is the per-pyramid-level state of a Sequence.
type seqLevel struct {
	w, h  int            // level image dimensions
	scale float64        // math.Pow(factor, level): maps level to image coords
	img   *imgproc.Image // level 0 only: the previous frame, or a one-shot frame's input
	grid  *hog.Grid      // the level's own, or in a one-shot frame the claiming worker's

	cellsX, cellsY int
	nRows, nCols   int // window grid in stride units

	changed []bool  // pixel rows that differ from the previous frame
	chPre   []int32 // prefix sums over changed
	dirty   []bool  // dirty cell rows
	dPre    []int32 // prefix sums over dirty

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

	// Raw detection cache, double-buffered in a persistent Sequence:
	// dets[cur] holds the last frame's raw (pre-NMS) detections of this
	// level; row r occupies dets[cur][rowStart[cur][r]:rowStart[cur][r+1]].
	dets     [2][]Detection
	rowStart [2][]int32
	cur      int
}

// Sequence is the temporal detection engine for one stream of
// equally-sized frames. Create one with Detector.NewSequence and feed
// frames through Next/NextPanned; a Sequence is not safe for
// concurrent use, and the slice Next returns is only valid until the
// next call. Each frame's levels are claimed by up to Config.Workers
// workers. Reuse requires a deterministic extractor — the same
// exception as Detect at Workers >= 2 (parrot stochastic coding)
// applies, since it can score identical pixels differently between
// frames.
type Sequence struct {
	d       *Detector
	cfg     Config // the Config lv was built for, Workers zeroed
	lv      []*seqLevel
	primed  bool
	pan     bool      // this frame's level 0 was shifted by tryPan
	oneShot bool      // a Detect state: cold frames that keep nothing (set by getState only)
	span    *obs.Span // parent of this frame's level spans, if any

	ws []workerScratch

	raw []Detection // this frame's merged raw candidates, scan order
	out []Detection // NMS output returned to the caller

	totalWindows uint64
	bx0, bx1     int // base-frame changed pixel-column extent

	frames  uint64
	elapsed time.Duration
}

// NewSequence returns a temporal detection engine bound to d. Frame
// geometry is fixed on first use; feeding a frame of different
// dimensions, or changing d.Config other than Workers, reinitializes
// the state (a full recompute).
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
	measured := obs.Enabled()
	var t0 time.Time
	if measured {
		t0 = time.Now()
		s.span = s.d.Trace
	}
	workers := s.d.Config.effectiveWorkers()
	var fs frameStats
	s.raw, fs = s.frame(img, panX, panY, workers, s.raw[:0])
	s.out = NMSInto(s.out[:0], s.raw, s.d.Config.NMSEpsilon)
	if measured {
		s.frames++
		s.elapsed += time.Since(t0)
		obs.GaugeM("detect.workers").Set(float64(workers))
		obs.CounterM("detect.frames").Inc()
		obs.CounterM("detect.bands_skipped").Add(fs.skipped)
		obs.CounterM("detect.cells_recomputed").Add(fs.cells)
		obs.CounterM("detect.windows_scanned").Add(fs.windows)
		obs.CounterM("detect.nms_in").Add(uint64(len(s.raw)))
		obs.CounterM("detect.nms_out").Add(uint64(len(s.out)))
		if s.totalWindows > 0 {
			obs.BucketHistogramM("detect.reuse_ratio", obs.RatioBuckets).
				Observe(1 - float64(fs.windows)/float64(s.totalWindows))
		}
		if secs := s.elapsed.Seconds(); secs > 0 {
			obs.GaugeM("detect.frames_per_sec").Set(float64(s.frames) / secs)
		}
	}
	return s.out
}

// frameStats sums one frame's worker counters.
type frameStats struct {
	workers                       int // workers used
	windows, errs, cells, skipped uint64
	busy                          time.Duration
}

// frame is the body of every frame, warm or cold: it rebuilds the
// levels when the frame size or the Config (Workers aside) changed,
// resets the worker counters, runs the level-0 diff, the pan check or
// the cold start, runs the levels on up to workers workers, appends
// their raw detections to dst in (level, row, col) order, then sums
// the worker counters and adds dropped windows to the detector's
// error count. A one-shot frame is always cold and drops its
// references to img and to the borrowed worker grids before returning.
func (s *Sequence) frame(img *imgproc.Image, panX, panY, workers int, dst []Detection) ([]Detection, frameStats) {
	cfg := s.d.Config
	cfg.Workers = 0
	if len(s.lv) == 0 || s.lv[0].w != img.W || s.lv[0].h != img.H || cfg != s.cfg {
		s.init(img.W, img.H, cfg)
	}
	if len(s.ws) < workers {
		s.ws = append(s.ws, make([]workerScratch, workers-len(s.ws))...)
	}
	for k := range s.ws {
		sc := &s.ws[k]
		sc.windows, sc.errs, sc.cells, sc.skipped, sc.busy = 0, 0, 0, 0, 0
	}

	base := s.lv[0]
	s.pan = false
	if s.primed && (panX != 0 || panY != 0) {
		s.pan = s.tryPan(img, panX, panY)
	}
	if !s.pan {
		if s.primed {
			s.diffPlain(img)
		} else {
			for y := range base.changed {
				base.changed[y] = true
			}
			s.bx0, s.bx1 = 0, base.w
			if s.oneShot {
				base.img = img
			} else {
				copy(base.img.Pix, img.Pix)
			}
		}
	}
	fs := frameStats{workers: runLevels(s, workers)}
	s.primed = !s.oneShot
	for _, lv := range s.lv {
		dst = append(dst, lv.dets[lv.cur]...)
		if s.oneShot {
			lv.img, lv.grid = nil, nil
		}
	}
	for k := range s.ws {
		sc := &s.ws[k]
		fs.windows += sc.windows
		fs.errs += sc.errs
		fs.cells += sc.cells
		fs.skipped += sc.skipped
		fs.busy += sc.busy
	}
	if fs.errs > 0 {
		s.d.descErrors.Add(fs.errs)
	}
	return dst, fs
}

// init builds the levels of w x h frames under cfg. Level dimensions
// are imgproc.PyramidSizes; box scaling uses math.Pow, so coordinates
// round exactly as the per-window oracle's do. Only a persistent
// Sequence gets a level-0 image and level grids of its own.
func (s *Sequence) init(w, h int, cfg Config) {
	winW, winH := cfg.WindowCellsX*cfg.CellSize, cfg.WindowCellsY*cfg.CellSize
	s.cfg = cfg
	s.lv = s.lv[:0]
	s.primed = false
	s.totalWindows = 0
	for li, sz := range imgproc.PyramidSizes(w, h, cfg.ScaleFactor, winW, winH, cfg.MaxLevels) {
		lw, lh := sz.W, sz.H
		lv := &seqLevel{w: lw, h: lh, scale: math.Pow(cfg.ScaleFactor, float64(li))}
		if !s.oneShot {
			lv.grid = new(hog.Grid)
			if li == 0 {
				lv.img = imgproc.New(lw, lh)
			}
		}
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
		s.totalWindows += uint64(lv.nRows) * uint64(lv.nCols)
		s.lv = append(s.lv, lv)
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
// base level's change state, shifted grid, dirty rows and columns, and
// reuse geometry are set up (the level-0 worker then recomputes the
// dirty cells) and true is returned; on any precondition failure
// nothing has been mutated and the caller falls back to the plain
// diff.
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
	base.pan = true
	base.srcRowDelta = dyc / cfg.StrideCells
	base.srcColDelta = dxc
	base.adjX, base.adjY = -panX, -panY
	// Deeper levels resample moved content: everything there is stale.
	s.bx0, s.bx1 = 0, bw
	return true
}

// runLevel does all of level li's frame work on worker sc, after the
// serial level-0 diff or pan: it marks the level's changed pixel rows,
// dirty cell rows and column ranges, updates its grid and scans its
// window rows into the level's detection slice. Deeper levels only read
// level 0's image and changed rows, which no worker writes. With
// telemetry enabled it records the level's detect.level_ms and
// detect.level_windows, and a level[li] span when the frame has a
// parent span.
func (s *Sequence) runLevel(sc *workerScratch, li int) {
	measured := obs.Enabled()
	var levelStart time.Time
	var span *obs.Span
	windows0 := sc.windows
	if measured {
		levelStart = time.Now()
		if s.span != nil {
			span = s.span.StartChild(fmt.Sprintf("level[%d]", li))
		}
	}
	lv := s.lv[li]
	if s.oneShot {
		lv.grid = &sc.grid
	}
	img := lv.img
	if li > 0 {
		if np := lv.w * lv.h; cap(sc.level.Pix) < np {
			sc.level.Pix = make([]float64, np)
		}
		sc.level.W, sc.level.H, sc.level.Pix = lv.w, lv.h, sc.level.Pix[:lv.w*lv.h]
		img = &sc.level
	}
	// Under pan, tryPan has already shifted level 0's grid and marked
	// its dirty rows and columns.
	if li > 0 || !s.pan {
		if li > 0 {
			s.markChangedRows(lv, s.pan)
		}
		lv.buildChPre()
		lv.computeDirty(s.d.Config.CellSize)
		lv.pan, lv.srcRowDelta, lv.srcColDelta, lv.adjX, lv.adjY = false, 0, 0, 0, 0
		s.levelColRange(lv)
	}
	s.updateGrid(sc, lv, img, lv.pan)
	s.scanLevel(sc, lv)
	if measured {
		span.End()
		el := time.Since(levelStart)
		sc.busy += el
		obs.BucketHistogramM("detect.level_windows", obs.WindowBuckets).Observe(float64(sc.windows - windows0))
		obs.BucketHistogramM("detect.level_ms", obs.LatencyMSBuckets).Observe(float64(el.Microseconds()) / 1000)
	}
}

// markChangedRows marks the pixel rows of deeper level lv whose
// bilinear source rows in level 0 changed; imgproc.SourceRows names
// those rows with the resize kernel's own row taps. forceAll marks
// every row — used under pan, where every level-0 pixel moved.
func (s *Sequence) markChangedRows(lv *seqLevel, forceAll bool) {
	base := s.lv[0]
	for y := range lv.changed {
		if forceAll {
			lv.changed[y] = true
			continue
		}
		r0, r1 := imgproc.SourceRows(base.h, lv.h, y)
		lv.changed[y] = base.changed[r0] || base.changed[r1]
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

// updateGrid brings lv.grid up to date with the level's pixels, which
// img holds: level 0's image, or at a deeper level the worker's buffer,
// into which it first resizes every pixel row it reads. Dirty cell rows
// are recomputed through full-width cell-aligned sub-image views (one
// margin cell row on each interior side absorbs the view's border
// clamping; one extra bottom pixel row replicates the kernels' read
// past the cell region) and spliced back; the prepared block plane is
// rebuilt over just the affected block rows. colSplices (level 0 under
// pan) additionally recomputes the level's dirty cell-column ranges
// through copied pixel strips, where exposed columns cut across every
// row. When the whole grid is dirty, or no block plane exists to
// rebuild, it falls back to a full recompute (fullGrid).
func (s *Sequence) updateGrid(sc *workerScratch, lv *seqLevel, img *imgproc.Image, colSplices bool) {
	cfg := s.d.Config
	cs := cfg.CellSize
	base := s.lv[0]
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
		s.fullGrid(sc, lv, img)
		return
	}
	sc.runs = sc.runs[:0]
	for r := 0; r < lv.cellsY; {
		if !lv.dirty[r] {
			r++
			continue
		}
		r1 := r + 1
		for r1 < lv.cellsY && lv.dirty[r1] {
			r1++
		}
		sc.runs = append(sc.runs, [2]int32{int32(r), int32(r1)})
		r = r1
	}
	for _, run := range sc.runs {
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
		if lv != base {
			imgproc.ResizeRowsInto(img, base.img, py0, py1)
		}
		sc.sub.W, sc.sub.H = lv.w, py1-py0
		sc.sub.Pix = img.Pix[py0*lv.w : py1*lv.w]
		s.d.Extractor.GridInto(&sc.subGrid, &sc.sub)
		if sc.subGrid.CellsX != lv.cellsX || sc.subGrid.Bins != lv.grid.Bins {
			// Unexpected geometry from the extractor: recompute fully.
			s.fullGrid(sc, lv, img)
			return
		}
		lv.grid.SpliceRows(&sc.subGrid, r0-s0, r0, r1)
		sc.cells += uint64(r1-r0) * uint64(lv.cellsX)
	}
	if colSplices {
		for k := 0; k < lv.nColRanges; k++ {
			s.spliceColRange(sc, lv, img, lv.colRanges[k][0], lv.colRanges[k][1])
		}
	}
	nby := lv.cellsY - bc + 1
	ok := true
	for _, run := range sc.runs {
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
		s.fullGrid(sc, lv, img)
	}
}

// fullGrid recomputes all of lv.grid from img, first resizing every
// pixel row of a deeper level into img (a partial update may have
// resized only some), and counts the cells.
func (s *Sequence) fullGrid(sc *workerScratch, lv *seqLevel, img *imgproc.Image) {
	if base := s.lv[0]; lv != base {
		imgproc.ResizeRowsInto(img, base.img, 0, lv.h)
	}
	s.d.Extractor.GridInto(lv.grid, img)
	sc.cells += uint64(lv.cellsX) * uint64(lv.cellsY)
}

// spliceColRange recomputes cell columns [c0, c1) of lv from img
// through a copied pixel strip with one margin cell column on each
// interior side (plus one extra pixel column on an interior right
// edge), full height, and splices the interior columns back into the
// grid.
func (s *Sequence) spliceColRange(sc *workerScratch, lv *seqLevel, img *imgproc.Image, c0, c1 int) {
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
	if cap(sc.strip.Pix) < need {
		sc.strip.Pix = make([]float64, need)
	}
	sc.strip.Pix = sc.strip.Pix[:need]
	sc.strip.W, sc.strip.H = sw, lv.h
	for y := 0; y < lv.h; y++ {
		copy(sc.strip.Pix[y*sw:(y+1)*sw], img.Pix[y*lv.w+px0:y*lv.w+px1])
	}
	s.d.Extractor.GridInto(&sc.stripGrid, &sc.strip)
	if sc.stripGrid.CellsY != lv.cellsY || sc.stripGrid.Bins != lv.grid.Bins {
		s.fullGrid(sc, lv, img)
		return
	}
	lv.grid.SpliceCols(&sc.stripGrid, c0-c0m, c0, c1)
	sc.cells += uint64(c1-c0) * uint64(lv.cellsY)
}

// scanLevel classifies every window row of lv and rebuilds the level's
// raw candidate cache in exact (row, col) scan order: clean rows are
// copied from the previous frame's cache, the others rescanned by
// scanSeqRow. The worker that claimed the level runs all of it. A
// one-shot frame, whose rows are all rescanned, writes its one
// detection slice in place.
//
//pcnn:hotpath
func (s *Sequence) scanLevel(sc *workerScratch, lv *seqLevel) {
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
	nxt := 1 - lv.cur
	if s.oneShot {
		nxt = lv.cur
	}
	nd := lv.dets[nxt][:0]
	nrs := append(lv.rowStart[nxt][:0], 0)
	prevDets := lv.dets[lv.cur]
	prevRS := lv.rowStart[lv.cur]
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
		if class != seqRowClean {
			nd = s.scanSeqRow(sc, lv, r, class == seqRowFull, nd)
		} else {
			sc.skipped++
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
		}
		nrs = append(nrs, int32(len(nd)))
	}
	lv.dets[nxt], lv.rowStart[nxt] = nd, nrs
	lv.cur = nxt
}

// scanSeqRow appends window row r's detections to dst in column order:
// a full row is one run for the row scorer (scoreRun); a mixed row
// hands it each stretch of windows overlapping the dirty cell-column
// ranges and merges the windows between the stretches from the
// previous frame's cache by source box position. The loop is
// allocation-free once sc's and dst's buffers are warm.
//
//pcnn:hotpath
func (s *Sequence) scanSeqRow(sc *workerScratch, lv *seqLevel, r int, full bool, dst []Detection) []Detection {
	d := s.d
	cfg := d.Config
	g := lv.grid
	wcx, stride := cfg.WindowCellsX, cfg.StrideCells
	gy := r * stride
	n := windowsAcross(g.CellsX, wcx, stride)
	if full {
		return d.scoreRun(sc, g, 0, gy, n, lv.scale, dst)
	}
	src := r + lv.srcRowDelta
	rs := lv.rowStart[lv.cur]
	prev := lv.dets[lv.cur][rs[src]:rs[src+1]]
	pc := 0
	for c := 0; c < n; {
		if lv.dirtyWindow(c*stride, wcx) {
			c1 := c + 1
			for c1 < n && lv.dirtyWindow(c1*stride, wcx) {
				c1++
			}
			dst = d.scoreRun(sc, g, c*stride, gy, c1-c, lv.scale, dst)
			c = c1
			continue
		}
		srcX := int(float64((c*stride+lv.srcColDelta)*cfg.CellSize) * lv.scale)
		for pc < len(prev) && prev[pc].Box.X < srcX {
			pc++
		}
		if pc < len(prev) && prev[pc].Box.X == srcX {
			det := prev[pc]
			pc++
			det.Box.X += lv.adjX
			det.Box.Y += lv.adjY
			dst = append(dst, det)
		}
		c++
	}
	return dst
}

// dirtyWindow reports whether the window of wcx cells at cell column
// gx overlaps one of lv's dirty cell-column ranges.
func (lv *seqLevel) dirtyWindow(gx, wcx int) bool {
	for k := 0; k < lv.nColRanges; k++ {
		if gx < lv.colRanges[k][1] && gx+wcx > lv.colRanges[k][0] {
			return true
		}
	}
	return false
}

// iabs returns |v|.
func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
