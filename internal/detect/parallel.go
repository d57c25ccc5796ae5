// Parallel scan engine: pyramid levels claimed by a worker pool within
// one frame, plus multi-image pipelining, both bit-identical to the
// sequential scan.
//
// The package has one scan engine, the temporal Sequence (temporal.go).
// Detect runs one cold frame of it on a pooled one-shot Sequence: a
// frame that diffs against nothing, so every level is recomputed and
// rescanned, and that keeps nothing once it ends. Its level 0 is the
// caller's image, and each level borrows the claiming worker's level
// buffer and grid. Idle one-shot states are shared by all Detectors
// through one bounded free list (idleStates).
//
// Within one frame the unit of work is a whole pyramid level. Up to
// Config.Workers goroutines (clamped to GOMAXPROCS and to the level
// count; the caller is one of them) claim levels, and the worker that
// claims a level does all of its work ((*Sequence).runLevel): it
// resizes the rows its grid update reads from level 0 into its own
// buffer (imgproc.ResizeRowsInto, bit-identical to imgproc.Resize),
// updates the level's grid and scans its window rows into the level's
// own detection slice. After the join the levels merge in level order,
// so the detection list comes out in exactly the sequential (level,
// row, col) order regardless of worker count or scheduling. No level
// reads another level's data, so no worker waits on another until the
// join. The caller claims from level 0 (the largest) upward and the
// helpers from the smallest level downward, so only the caller's
// buffers ever grow to frame size.
//
// Multi-image, DetectAll/DetectStream hand whole images to the worker
// pool instead (one one-shot state each, one worker per image) — the
// better split for evaluation runs, where per-image work already
// saturates a worker. Images are claimed off an atomic counter; results
// are keyed by index, so output order is deterministic there too.
//
// One row scorer, scoreRun, scores a run of windows along one row: a
// whole row, or each dirty stretch of one in a warm Sequence frame.
// With an *svm.Model scorer it takes the run's scores straight off the
// block plane, four windows per pass (Extractor.LinearScoresInto); any
// other scorer gets each window's DescriptorInto descriptor.
//
// The steady-state inner window loop performs no allocations: level
// buffers and grids are reused per worker, scores and descriptors are
// appended into per-worker scratch buffers, and detection slices are
// recycled across levels and frames.
package detect

import (
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
// levels and frames so the steady-state scan allocates nothing.
type workerScratch struct {
	desc    []float64 // descriptor append buffer
	scores  []float64 // LinearScoresInto append buffer
	windows uint64    // windows scanned this frame
	errs    uint64    // windows dropped this frame (descriptor errors)
	cells   uint64    // cells recomputed this frame
	skipped uint64    // window rows served from the cache this frame
	busy    time.Duration

	// The claimed level's resized pixel rows (levels above 0), and a
	// one-shot frame's level grid.
	level imgproc.Image
	grid  hog.Grid

	// Partial grid updates: row-run view, column strip and their grids.
	sub       imgproc.Image
	subGrid   hog.Grid
	strip     imgproc.Image
	stripGrid hog.Grid
	runs      [][2]int32
}

// runLevels runs s's levels on min(workers, levels) workers: the
// calling goroutine on s.ws[0], claiming from level 0 upward, and
// helper goroutines on s.ws[1:], claiming from the last level downward.
// It returns the number of workers used. One worker runs the levels in
// order on the caller with no goroutine, closure or lock.
func runLevels(s *Sequence, workers int) int {
	n := len(s.lv)
	w := min(workers, n)
	if w <= 1 {
		for li := 0; li < n; li++ {
			s.runLevel(&s.ws[0], li)
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
		sc := &s.ws[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li, ok := claim(false); ok; li, ok = claim(false) {
				s.runLevel(sc, li)
			}
		}()
	}
	for li, ok := claim(true); ok; li, ok = claim(true) {
		s.runLevel(&s.ws[0], li)
	}
	wg.Wait()
	return w
}

// idleStates is the process-wide free list of one-shot Sequences, the
// scan states of Detect, DetectRaw, DetectStream and DetectAll. Like a
// sync.Pool it only caches buffers — no scan's output depends on which
// state it gets — but it holds at most GOMAXPROCS states and keeps them
// across garbage collections, where a pool keeps up to one per P plus
// victim copies. A state keeps no per-detector data between frames (a
// frame rebuilds its levels when the frame size or the Config differs
// from the last), so detectors driven in turn by one goroutine share
// one state.
var idleStates struct {
	sync.Mutex
	list []*Sequence
}

// getState takes an idle one-shot Sequence off the free list, or makes
// one, and binds it to d.
func (d *Detector) getState() *Sequence {
	idleStates.Lock()
	var st *Sequence
	if n := len(idleStates.list); n > 0 {
		st = idleStates.list[n-1]
		idleStates.list[n-1] = nil
		idleStates.list = idleStates.list[:n-1]
	}
	idleStates.Unlock()
	if st == nil {
		st = &Sequence{oneShot: true}
	}
	st.d = d
	return st
}

// putState returns st to the free list. The list keeps the GOMAXPROCS
// most recently used states; an older surplus state is left to the GC,
// so a warm state is never dropped in favour of a cold one.
func putState(st *Sequence) {
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
	out := st.detectOnce(img, workers, nil)
	putState(st)
	return out
}

// detectOnce runs img through the one-shot state st as one cold frame
// with up to workers level workers, and appends its above-threshold
// windows to dst in (level, row, col) order.
func (st *Sequence) detectOnce(img *imgproc.Image, workers int, dst []Detection) []Detection {
	d := st.d
	measured := obs.Enabled()
	var start time.Time
	if measured {
		start = time.Now()
		if d.Trace != nil {
			st.span = d.Trace.StartChild("detect.image")
		} else {
			st.span = obs.StartSpan("detect.image")
		}
	}
	n0 := len(dst)
	dst, fs := st.frame(img, 0, 0, workers, dst)
	if measured {
		wall := time.Since(start)
		st.span.End()
		st.span = nil
		obs.CounterM("detect.images").Inc()
		obs.CounterM("detect.windows_scanned").Add(fs.windows)
		obs.CounterM("detect.windows_above_threshold").Add(uint64(len(dst) - n0))
		obs.CounterM("detect.pyramid_levels").Add(uint64(len(st.lv)))
		obs.CounterM("detect.descriptor_errors").Add(fs.errs)
		if secs := wall.Seconds(); secs > 0 {
			obs.GaugeM("detect.windows_per_sec").Set(float64(fs.windows) / secs)
		}
		if fs.workers > 1 && wall > 0 {
			obs.BucketHistogramM("detect.worker_utilization", obs.RatioBuckets).
				Observe(fs.busy.Seconds() / (float64(fs.workers) * wall.Seconds()))
		}
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

// scoreRun is the engine's row scorer: it scores the n windows of g
// with top-left cells (gx0+j*StrideCells, gy), j = 0..n-1, and appends
// the above-threshold ones to dst in column order; scale maps level to
// image coordinates. An *svm.Model scorer takes the kernel path: the
// run's scores come from LinearScoresInto, bit-identical to Score of
// each descriptor. Any other scorer, or a kernel error, takes the
// per-window path: DescriptorInto then Score per window, counting
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
			var raw []Detection
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				raw = st.detectOnce(src(i), 1, raw[:0])
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
