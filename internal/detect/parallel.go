// Parallel scan engine: pyramid levels claimed by a worker pool within
// one image, plus multi-image pipelining, both bit-identical to the
// sequential scan.
//
// Within one image (Detect) or one frame (Sequence), the unit of work
// is a whole pyramid level. Up to Config.Workers goroutines (clamped to
// GOMAXPROCS and to the level count; the caller is one of them) claim
// levels, and the worker that claims a level does all of its work: for
// Detect it resizes the level from the source image into its own
// buffer (imgproc.ResizeRowsInto, bit-identical to imgproc.Resize),
// runs GridInto into its own grid and scans the level's windows into
// that level's own detection slice; for Sequence it refreshes the
// level and rescans its dirty rows (temporal.go). After the join the
// levels merge in level order, so the detection list comes out in
// exactly the sequential (level, row, col) order regardless of worker
// count or scheduling. No level reads another level's data, so every
// stage — resize, grid and scan — runs in parallel and no worker waits
// on another until the join.
//
// The caller claims from level 0 (the largest) upward and the helpers
// from the smallest level downward, so only the caller's buffers ever
// grow to frame size: a helper's grid and level image stay at the size
// of the largest level it reached. Idle scan states are shared by all
// Detectors through one bounded free list (idleStates).
//
// Multi-image, DetectAll/DetectStream hand whole images to the worker
// pool instead (one scan state each, one worker per image) — the
// better split for evaluation runs, where per-image work already
// saturates a worker. Images are claimed off an atomic counter; results
// are keyed by index, so output order is deterministic there too.
//
// Both engines score windows through one row scorer, scoreRun, over a
// run of windows along one row: a whole row in Detect, a whole row or
// each dirty stretch of one in Sequence. With an *svm.Model scorer it
// takes the run's scores straight off the block plane, four windows
// per pass (Extractor.LinearScoresInto); any other scorer gets each
// window's DescriptorInto descriptor.
//
// The steady-state inner window loop performs no allocations: level
// images and grids are reused per worker, scores and descriptors are
// appended into per-worker scratch buffers, and detection slices are
// recycled across levels and images.
package detect

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/svm"
)

// effectiveWorkers resolves Config.Workers to the pool size actually
// used: at least 1, at most GOMAXPROCS.
func (c Config) effectiveWorkers() int {
	w := c.Workers
	if w <= 0 {
		w = 1
	}
	if maxProcs := runtime.GOMAXPROCS(0); w > maxProcs {
		w = maxProcs
	}
	return w
}

// workerScratch is one level worker's private state, reused across
// levels, images and frames so the steady-state scan allocates nothing.
type workerScratch struct {
	desc    []float64 // descriptor append buffer
	scores  []float64 // LinearScoresInto append buffer
	windows uint64    // windows scanned this image
	errs    uint64    // windows dropped this image (descriptor errors)
	busy    time.Duration

	// Detect: the claimed level's pixels (level 0 scans the source
	// image itself) and cell grid.
	level imgproc.Image
	grid  hog.Grid

	// Sequence: row- and column-run recompute scratch, and this
	// frame's recomputed cells and clean (reused) window rows.
	subGrid   hog.Grid
	strip     imgproc.Image
	stripGrid hog.Grid
	runs      [][2]int32
	cells     uint64
	skipped   uint64
}

// levelJob is one image's or frame's per-level work; runLevel does all
// of level li on worker scratch sc. Calls for distinct levels run
// concurrently.
type levelJob interface {
	runLevel(sc *workerScratch, li int)
}

// runLevels runs job over levels [0, n) on min(workers, n) workers:
// the calling goroutine on ws[0], claiming from level 0 upward, and
// helper goroutines on ws[1:], claiming from level n-1 downward. It
// returns the number of workers used. One worker runs the levels in
// order on the caller with no goroutine, closure or lock.
func runLevels(job levelJob, ws []workerScratch, n, workers int) int {
	w := min(workers, n)
	if w <= 1 {
		for li := 0; li < n; li++ {
			job.runLevel(&ws[0], li)
		}
		return 1
	}
	var mu sync.Mutex
	lo, hi := 0, n // unclaimed levels
	claim := func(front bool) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if lo >= hi {
			return 0, false
		}
		if front {
			lo++
			return lo - 1, true
		}
		hi--
		return hi, true
	}
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		sc := &ws[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li, ok := claim(false); ok; li, ok = claim(false) {
				job.runLevel(sc, li)
			}
		}()
	}
	for li, ok := claim(true); ok; li, ok = claim(true) {
		job.runLevel(&ws[0], li)
	}
	wg.Wait()
	return w
}

// scanState is one Detect call's reusable state: one scratch per
// worker and one detection slice per level. Idle states sit in
// idleStates.
type scanState struct {
	d     *Detector      // the scanning detector; nil between scans
	img   *imgproc.Image // the image being scanned; nil between scans
	span  *obs.Span      // detect.image while telemetry is enabled
	sizes []imgproc.Size // the image's pyramid levels
	ws    []workerScratch
	dets  [][]Detection // per level, (row, col) order
}

// idleStates is the process-wide free list of scan states. Like a
// sync.Pool it only caches buffers — no scan's output depends on which
// state it gets — but it holds at most GOMAXPROCS states and keeps them
// across garbage collections, where a pool keeps up to one per P plus
// victim copies. A state holds no per-detector data, so detectors
// driven in turn by one goroutine share one state.
var idleStates struct {
	sync.Mutex
	list []*scanState
}

// getState takes an idle scan state off the free list, or makes one.
func (d *Detector) getState() *scanState {
	idleStates.Lock()
	var st *scanState
	if n := len(idleStates.list); n > 0 {
		st = idleStates.list[n-1]
		idleStates.list[n-1] = nil
		idleStates.list = idleStates.list[:n-1]
	}
	idleStates.Unlock()
	if st == nil {
		st = &scanState{}
	}
	st.d = d
	return st
}

// putState returns st to the free list. The list keeps the GOMAXPROCS
// most recently used states; an older surplus state is left to the GC,
// so a warm state is never dropped in favour of a cold one.
func putState(st *scanState) {
	st.d = nil
	idleStates.Lock()
	if n := len(idleStates.list) - runtime.GOMAXPROCS(0) + 1; n > 0 {
		k := copy(idleStates.list, idleStates.list[n:])
		clear(idleStates.list[k:])
		idleStates.list = idleStates.list[:k]
	}
	idleStates.list = append(idleStates.list, st)
	idleStates.Unlock()
}

// DetectRaw returns all above-threshold windows before suppression, in
// (level, row, col) scan order — invariant to Config.Workers. With
// telemetry enabled it records per-level window counts and timings
// (detect.level_windows, detect.level_ms, each level measured by the
// worker that claimed it), the worker count, per-image worker
// utilization (detect.worker_utilization, a bucketed histogram of level
// busy time over workers x wall time of the level phase, observed for
// images scanned by more than one worker), and an aggregate windows/s
// gauge; the per-window inner loop itself carries no telemetry.
func (d *Detector) DetectRaw(img *imgproc.Image) []Detection {
	workers := d.Config.effectiveWorkers()
	if obs.Enabled() {
		obs.GaugeM("detect.workers").Set(float64(workers))
	}
	st := d.getState()
	out := d.detectRaw(st, img, workers)
	putState(st)
	return out
}

// detectRaw scans img with up to workers level workers using st.
func (d *Detector) detectRaw(st *scanState, img *imgproc.Image, workers int) []Detection {
	cfg := d.Config
	st.sizes = imgproc.PyramidSizes(img.W, img.H, cfg.ScaleFactor,
		cfg.WindowCellsX*cfg.CellSize, cfg.WindowCellsY*cfg.CellSize, cfg.MaxLevels)
	n := len(st.sizes)
	if len(st.dets) < n {
		st.dets = append(st.dets, make([][]Detection, n-len(st.dets))...)
	}
	if len(st.ws) < workers {
		st.ws = append(st.ws, make([]workerScratch, workers-len(st.ws))...)
	}
	for k := range st.ws {
		st.ws[k].windows, st.ws[k].errs, st.ws[k].busy = 0, 0, 0
	}
	st.img = img
	measured := obs.Enabled()
	var scanStart time.Time
	if measured {
		scanStart = time.Now()
		if d.Trace != nil {
			st.span = d.Trace.StartChild("detect.image")
		} else {
			st.span = obs.StartSpan("detect.image")
		}
	}
	used := runLevels(st, st.ws, n, workers)
	st.img = nil
	var wall time.Duration
	if measured {
		wall = time.Since(scanStart)
	}
	// Deterministic merge: levels in order, each in (row, col) order.
	var out []Detection
	for _, ld := range st.dets[:n] {
		out = append(out, ld...)
	}
	var totalWindows, totalErrs uint64
	var busy time.Duration
	for k := range st.ws {
		totalWindows += st.ws[k].windows
		totalErrs += st.ws[k].errs
		busy += st.ws[k].busy
	}
	if totalErrs > 0 {
		d.descErrors.Add(totalErrs)
	}
	if measured {
		st.span.End()
		st.span = nil
		obs.CounterM("detect.images").Inc()
		obs.CounterM("detect.windows_scanned").Add(totalWindows)
		obs.CounterM("detect.windows_above_threshold").Add(uint64(len(out)))
		obs.CounterM("detect.pyramid_levels").Add(uint64(n))
		obs.CounterM("detect.descriptor_errors").Add(totalErrs)
		if secs := time.Since(scanStart).Seconds(); secs > 0 {
			obs.GaugeM("detect.windows_per_sec").Set(float64(totalWindows) / secs)
		}
		if used > 1 && wall > 0 {
			obs.BucketHistogramM("detect.worker_utilization", obs.RatioBuckets).
				Observe(busy.Seconds() / (float64(used) * wall.Seconds()))
		}
	}
	return out
}

// runLevel does all of level li of the image being scanned on worker
// sc: resize (levels above 0), GridInto and the window scan into the
// level's own detection slice.
func (st *scanState) runLevel(sc *workerScratch, li int) {
	d := st.d
	cfg := d.Config
	measured := obs.Enabled()
	var levelStart time.Time
	var span *obs.Span
	windows0 := sc.windows
	if measured {
		levelStart = time.Now()
		span = st.span.StartChild(fmt.Sprintf("level[%d]", li))
	}
	level := st.img
	if li > 0 {
		sz := st.sizes[li]
		if np := sz.W * sz.H; cap(sc.level.Pix) < np {
			sc.level.Pix = make([]float64, np)
		}
		sc.level.W, sc.level.H, sc.level.Pix = sz.W, sz.H, sc.level.Pix[:sz.W*sz.H]
		imgproc.ResizeRowsInto(&sc.level, st.img, 0, sz.H)
		level = &sc.level
	}
	d.Extractor.GridInto(&sc.grid, level)
	dets := st.dets[li][:0]
	if sc.grid.CellsY >= cfg.WindowCellsY && sc.grid.CellsX >= cfg.WindowCellsX {
		dets = d.scanGrid(sc, &sc.grid, math.Pow(cfg.ScaleFactor, float64(li)), dets)
	}
	st.dets[li] = dets
	if measured {
		span.End()
		el := time.Since(levelStart)
		sc.busy += el
		obs.BucketHistogramM("detect.level_windows", obs.WindowBuckets).Observe(float64(sc.windows - windows0))
		obs.BucketHistogramM("detect.level_ms", obs.LatencyMSBuckets).Observe(float64(el.Microseconds()) / 1000)
	}
}

// scanGrid scans every window of the level grid g, appending the
// above-threshold ones to dst in (row, col) order; scale maps level
// to image coordinates. Other workers scan other levels concurrently;
// everything it writes is worker-private. The loop is allocation-free
// once sc's and dst's buffers are warm.
//
//pcnn:hotpath
func (d *Detector) scanGrid(sc *workerScratch, g *hog.Grid, scale float64, dst []Detection) []Detection {
	cfg := d.Config
	n := windowsAcross(g.CellsX, cfg.WindowCellsX, cfg.StrideCells)
	for gy := 0; gy+cfg.WindowCellsY <= g.CellsY; gy += cfg.StrideCells {
		dst = d.scoreRun(sc, g, 0, gy, n, scale, dst)
	}
	return dst
}

// windowsAcross returns how many windows of win cells fit across cells
// cells at stride stride.
func windowsAcross(cells, win, stride int) int {
	if cells < win {
		return 0
	}
	return (cells-win)/stride + 1
}

// scoreRun is the row scorer of both engines: it scores the n windows
// of g with top-left cells (gx0+j*StrideCells, gy), j = 0..n-1, and
// appends the above-threshold ones to dst in column order; scale maps
// level to image coordinates. An *svm.Model scorer takes the kernel
// path: the run's scores come from LinearScoresInto, bit-identical to
// Score of each descriptor. Any other scorer, or a kernel error, takes
// the per-window path: DescriptorInto then Score per window, counting
// failed descriptors in sc.errs. Everything it writes is
// worker-private, and it allocates nothing once sc's and dst's buffers
// are warm.
//
//pcnn:hotpath
func (d *Detector) scoreRun(sc *workerScratch, g *hog.Grid, gx0, gy, n int, scale float64, dst []Detection) []Detection {
	cfg := d.Config
	stride := cfg.StrideCells
	sc.windows += uint64(n)
	if m, ok := d.Scorer.(*svm.Model); ok {
		scores, err := d.Extractor.LinearScoresInto(sc.scores[:0], g, gx0, gy, stride, n, m.W, m.B)
		if err == nil {
			sc.scores = scores
			for j, s := range scores {
				if s < cfg.Threshold {
					continue
				}
				dst = append(dst, Detection{Box: d.windowBox(gx0+j*stride, gy, scale), Score: s})
			}
			return dst
		}
	}
	for j := 0; j < n; j++ {
		gx := gx0 + j*stride
		desc, err := d.Extractor.DescriptorInto(sc.desc[:0], g, gx, gy)
		if err != nil {
			sc.errs++
			continue
		}
		sc.desc = desc
		s := d.Scorer.Score(desc)
		if s < cfg.Threshold {
			continue
		}
		dst = append(dst, Detection{Box: d.windowBox(gx, gy, scale), Score: s})
	}
	return dst
}

// windowBox maps the window at level cell (gx, gy) to image
// coordinates.
func (d *Detector) windowBox(gx, gy int, scale float64) dataset.Box {
	cfg := d.Config
	return dataset.Box{
		X: int(float64(gx*cfg.CellSize) * scale),
		Y: int(float64(gy*cfg.CellSize) * scale),
		W: int(float64(cfg.WindowCellsX*cfg.CellSize) * scale),
		H: int(float64(cfg.WindowCellsY*cfg.CellSize) * scale),
	}
}

// DetectStream runs the full Detect pipeline (scan + NMS) over n
// images, pipelining whole images across the configured worker pool.
// src(i) must return image i (called exactly once per index) and
// sink(i, dets) receives image i's NMS-filtered detections; with more
// than one worker both are called concurrently from pool goroutines
// (sink once per index, distinct indexes). Per-image output is
// identical to Detect regardless of worker count.
//
// Multi-image mode scans concurrently through the shared Extractor
// and Scorer, which is safe for all stateless extractors in this repo;
// parrot.Extractor with Stochastic coding (shared Rng) is the
// exception — drive it with Workers <= 1.
func (d *Detector) DetectStream(n int, src func(int) *imgproc.Image, sink func(int, []Detection)) {
	if n <= 0 {
		return
	}
	workers := d.Config.effectiveWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Too few images to pipeline: let each image use level
		// parallelism instead.
		for i := 0; i < n; i++ {
			sink(i, d.Detect(src(i)))
		}
		return
	}
	measured := obs.Enabled()
	if measured {
		obs.GaugeM("detect.workers").Set(float64(workers))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := d.getState()
			defer putState(st)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				raw := d.detectRaw(st, src(i), 1)
				kept := NMS(raw, d.Config.NMSEpsilon)
				if measured {
					obs.CounterM("detect.nms_in").Add(uint64(len(raw)))
					obs.CounterM("detect.nms_out").Add(uint64(len(kept)))
				}
				sink(i, kept)
			}
		}()
	}
	wg.Wait()
}

// DetectAll runs Detect over every image, using the configured workers
// to pipeline images, and returns per-image NMS-filtered detections in
// input order. Output is identical to calling Detect per image.
func (d *Detector) DetectAll(imgs []*imgproc.Image) [][]Detection {
	out := make([][]Detection, len(imgs))
	d.DetectStream(len(imgs),
		func(i int) *imgproc.Image { return imgs[i] },
		func(i int, dets []Detection) { out[i] = dets })
	return out
}
