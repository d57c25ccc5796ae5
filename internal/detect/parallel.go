// Parallel scan engine: intra-image band parallelism plus multi-image
// pipelining, both bit-identical to the sequential scan.
//
// Intra-image, each pyramid level's window rows are split into
// contiguous bands dispatched to Config.Workers goroutines (clamped to
// GOMAXPROCS, like eedn.TrainParallel). Every band appends into its
// own scratch in (row, col) order and bands are merged in band order,
// so the detection list comes out in exactly the sequential (level,
// row, col) order regardless of worker count or scheduling.
//
// Multi-image, DetectAll/DetectStream hand whole images to the worker
// pool instead (one scan state each, bands disabled) — the better
// split for evaluation runs, where per-image work already saturates a
// worker. Images are claimed off an atomic counter; results are keyed
// by index, so output order is deterministic there too.
//
// The steady-state inner window loop performs no allocations: the cell
// grid is a reusable flat hog.Grid filled once per level, descriptors
// are appended into per-worker scratch buffers via DescriptorInto, and
// detection slices are recycled across levels and images.
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

// workerScratch is one band worker's private state. desc and dets are
// reused across bands, levels, and images, so the steady-state scan
// allocates nothing.
type workerScratch struct {
	desc    []float64   // descriptor append buffer
	dets    []Detection // this band's detections, (row, col) order
	windows uint64      // windows scanned this image
	errs    uint64      // windows dropped this image (descriptor errors)
	busy    time.Duration
}

// scanState is the reusable per-scan state: the flat level grid plus
// one scratch per worker. States are pooled on the Detector.
type scanState struct {
	grid hog.Grid
	ws   []workerScratch
}

// getState fetches a pooled scan state with room for workers bands.
func (d *Detector) getState(workers int) *scanState {
	st, _ := d.scratch.Get().(*scanState)
	if st == nil {
		st = &scanState{}
	}
	if len(st.ws) < workers {
		st.ws = append(st.ws, make([]workerScratch, workers-len(st.ws))...)
	}
	return st
}

// DetectRaw returns all above-threshold windows before suppression, in
// (level, row, col) scan order — invariant to Config.Workers. With
// telemetry enabled it records per-level window counts and timings,
// per-band timings, worker count, per-image parallel-phase worker
// utilization (detect.worker_utilization, a bucketed histogram of
// band-busy time over workers x parallel wall time, so serial pyramid
// and grid phases don't dilute it), and an aggregate windows/s gauge;
// the per-window inner loop itself carries no telemetry.
func (d *Detector) DetectRaw(img *imgproc.Image) []Detection {
	workers := d.Config.effectiveWorkers()
	if obs.Enabled() {
		obs.GaugeM("detect.workers").Set(float64(workers))
	}
	st := d.getState(workers)
	out := d.detectRaw(st, img, workers)
	d.scratch.Put(st)
	return out
}

// detectRaw scans img with the given band worker count using st's
// scratch. st must have at least workers scratches.
func (d *Detector) detectRaw(st *scanState, img *imgproc.Image, workers int) []Detection {
	cfg := d.Config
	winW := cfg.WindowCellsX * cfg.CellSize
	winH := cfg.WindowCellsY * cfg.CellSize
	levels := imgproc.Pyramid(img, cfg.ScaleFactor, winW, winH, cfg.MaxLevels)
	measured := obs.Enabled()
	var scanStart time.Time
	var imgSpan *obs.Span
	if measured {
		scanStart = time.Now()
		if d.Trace != nil {
			imgSpan = d.Trace.StartChild("detect.image")
		} else {
			imgSpan = obs.StartSpan("detect.image")
		}
	}
	for b := 0; b < workers; b++ {
		st.ws[b].windows, st.ws[b].errs, st.ws[b].busy = 0, 0, 0
	}
	// Parallel-phase utilization accumulators: band busy seconds and
	// workers x wall seconds, summed over levels that actually fanned
	// out. Levels narrow enough to run single-band are excluded — they
	// measure nothing about worker balance.
	var parBusy, parDenom float64
	var out []Detection
	for li, level := range levels {
		var levelStart time.Time
		var lvlSpan *obs.Span
		if measured {
			levelStart = time.Now()
			lvlSpan = imgSpan.StartChild(fmt.Sprintf("level[%d]", li))
		}
		var levelBase uint64
		for b := 0; b < workers; b++ {
			levelBase += st.ws[b].windows
		}
		scale := math.Pow(cfg.ScaleFactor, float64(li))
		d.Extractor.GridInto(&st.grid, level)
		if st.grid.CellsY < cfg.WindowCellsY || st.grid.CellsX < cfg.WindowCellsX {
			lvlSpan.End()
			continue
		}
		nRows := (st.grid.CellsY-cfg.WindowCellsY)/cfg.StrideCells + 1
		w := workers
		if w > nRows {
			w = nRows
		}
		if w <= 1 {
			sc := &st.ws[0]
			var bandStart time.Time
			var bandSpan *obs.Span
			if measured {
				bandStart = time.Now()
				bandSpan = lvlSpan.StartChild("band[0]")
			}
			d.scanBand(sc, &st.grid, 0, nRows, scale, winW, winH)
			if measured {
				bandSpan.End()
				el := time.Since(bandStart)
				sc.busy += el
				obs.BucketHistogramM("detect.band_ms", obs.LatencyMSBuckets).Observe(float64(el.Microseconds()) / 1000)
			}
			out = append(out, sc.dets...)
		} else {
			var busyBefore time.Duration
			var parStart time.Time
			if measured {
				for b := 0; b < w; b++ {
					busyBefore += st.ws[b].busy
				}
				parStart = time.Now()
			}
			var wg sync.WaitGroup
			for b := 0; b < w; b++ {
				// Balanced contiguous split: band sizes differ by at most
				// one row, so no worker draws an empty or double-length
				// band on narrow levels (ceil-chunking did both, idling
				// trailing workers and capping utilization).
				r0 := b * nRows / w
				r1 := (b + 1) * nRows / w
				sc := &st.ws[b]
				wg.Add(1)
				go func() {
					defer wg.Done()
					var bandStart time.Time
					var bandSpan *obs.Span
					if measured {
						bandStart = time.Now()
						bandSpan = lvlSpan.StartChild(fmt.Sprintf("band[%d]", b))
					}
					d.scanBand(sc, &st.grid, r0, r1, scale, winW, winH)
					if measured {
						bandSpan.End()
						el := time.Since(bandStart)
						sc.busy += el
						obs.BucketHistogramM("detect.band_ms", obs.LatencyMSBuckets).Observe(float64(el.Microseconds()) / 1000)
					}
				}()
			}
			wg.Wait()
			if measured {
				var busyAfter time.Duration
				for b := 0; b < w; b++ {
					busyAfter += st.ws[b].busy
				}
				parBusy += (busyAfter - busyBefore).Seconds()
				parDenom += float64(w) * time.Since(parStart).Seconds()
			}
			// Deterministic merge: bands cover ascending row ranges, so
			// appending in band order restores the sequential scan order.
			for b := 0; b < w; b++ {
				out = append(out, st.ws[b].dets...)
			}
		}
		if measured {
			lvlSpan.End()
			var lvlWindows uint64
			for b := 0; b < workers; b++ {
				lvlWindows += st.ws[b].windows
			}
			lvlWindows -= levelBase
			obs.HistogramM("detect.level_windows").Observe(float64(lvlWindows))
			obs.BucketHistogramM("detect.level_ms", obs.LatencyMSBuckets).Observe(float64(time.Since(levelStart).Microseconds()) / 1000)
		}
	}
	var totalWindows, totalErrs uint64
	for b := 0; b < workers; b++ {
		totalWindows += st.ws[b].windows
		totalErrs += st.ws[b].errs
	}
	if totalErrs > 0 {
		d.descErrors.Add(totalErrs)
	}
	if measured {
		imgSpan.End()
		obs.CounterM("detect.images").Inc()
		obs.CounterM("detect.windows_scanned").Add(totalWindows)
		obs.CounterM("detect.windows_above_threshold").Add(uint64(len(out)))
		obs.CounterM("detect.pyramid_levels").Add(uint64(len(levels)))
		obs.CounterM("detect.descriptor_errors").Add(totalErrs)
		if secs := time.Since(scanStart).Seconds(); secs > 0 {
			obs.GaugeM("detect.windows_per_sec").Set(float64(totalWindows) / secs)
		}
		if parDenom > 0 {
			obs.BucketHistogramM("detect.worker_utilization", obs.RatioBuckets).
				Observe(parBusy / parDenom)
		}
	}
	return out
}

// scanBand scans window rows [r0, r1) (in stride units) of the level
// grid g into sc.dets, reset first, appending in (row, col) order. It
// runs concurrently with other bands over the same read-only grid;
// everything it writes is band-private. The loop is allocation-free
// once sc's buffers are warm.
//
//pcnn:hotpath
func (d *Detector) scanBand(sc *workerScratch, g *hog.Grid, r0, r1 int, scale float64, winW, winH int) {
	cfg := d.Config
	sc.dets = sc.dets[:0]
	for r := r0; r < r1; r++ {
		gy := r * cfg.StrideCells
		for gx := 0; gx+cfg.WindowCellsX <= g.CellsX; gx += cfg.StrideCells {
			sc.windows++
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
			sc.dets = append(sc.dets, Detection{
				Box: dataset.Box{
					X: int(float64(gx*cfg.CellSize) * scale),
					Y: int(float64(gy*cfg.CellSize) * scale),
					W: int(float64(winW) * scale),
					H: int(float64(winH) * scale),
				},
				Score: s,
			})
		}
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
		// Too few images to pipeline: let each image use band
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
			st := d.getState(1)
			defer d.scratch.Put(st)
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
