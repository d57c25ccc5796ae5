// Package detect implements the paper's detection protocol (Sec. 4):
// sliding 64x128 windows over a 1.1x scale pyramid, score thresholding,
// greedy non-maximum suppression with epsilon = 0.2, and the
// miss-rate versus false-positives-per-image evaluation of Dollar et
// al. with IoU >= 0.5 true-positive matching.
package detect

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Extractor is the split between feature extraction and
// classification: GridInto fills a reusable flat grid with the cell
// histograms of an image (and the block plane derived from them),
// DescriptorInto appends the descriptor of the window whose top-left
// cell is (cellX, cellY) to a caller-owned scratch buffer, and
// LinearScoresInto appends the linear scores b + w·x of the n windows
// at (cellX+j*step, cellY) straight from the block plane, each
// bit-identical to svm.Model.Score of that window's descriptor.
// hog.Extractor, hog.FPGAExtractor, napprox.Extractor and
// parrot.Extractor satisfy it. GridInto is called concurrently on
// distinct grids (level workers in Detect and Sequence, image workers
// in DetectStream), and DescriptorInto and LinearScoresInto must be
// safe for concurrent callers holding distinct dst buffers over one
// shared read-only grid. The scan calls LinearScoresInto only when the
// Scorer is an *svm.Model; every other Scorer gets DescriptorInto
// descriptors window by window. parrot.Extractor with Stochastic coding
// draws from one shared Rng, so it is the exception: drive it with
// Workers <= 1 (only experiments.Fig6 builds one, and only for
// parrot.ClassAccuracy).
type Extractor interface {
	GridInto(g *hog.Grid, img *imgproc.Image)
	DescriptorInto(dst []float64, g *hog.Grid, cellX, cellY int) ([]float64, error)
	LinearScoresInto(dst []float64, g *hog.Grid, cellX, cellY, step, n int, w []float64, b float64) ([]float64, error)
}

// Scorer maps a window descriptor to a detection score; svm.Model and
// the Eedn classifier adapter satisfy it.
type Scorer interface {
	Score(x []float64) float64
}

// Detection is one scored candidate box in original-image coordinates.
type Detection struct {
	Box   dataset.Box
	Score float64
}

// Config parameterizes the detector.
type Config struct {
	// CellSize is the extractor's cell size in pixels (8).
	CellSize int
	// WindowCellsX/Y is the window size in cells (8 x 16).
	WindowCellsX, WindowCellsY int
	// ScaleFactor is the pyramid step (1.1 in the paper).
	ScaleFactor float64
	// MaxLevels caps pyramid depth (15 windows in the paper's test
	// protocol); 0 means scan until the window no longer fits.
	MaxLevels int
	// StrideCells is the window step in cells (1 = dense cell-aligned
	// scan).
	StrideCells int
	// Threshold is the minimum score for a candidate detection.
	Threshold float64
	// NMSEpsilon is the overlap at which a weaker box is suppressed.
	NMSEpsilon float64
	// Workers bounds the scan parallelism: within one image (Detect)
	// or frame (Sequence) up to this many goroutines, the caller
	// included, claim whole pyramid levels, and DetectAll/DetectStream
	// pipeline whole images across them. 0 or 1 selects the sequential
	// path; values above GOMAXPROCS are clamped to it, and a scan never
	// uses more workers than it has levels. Output is invariant to
	// Workers — levels merge in (level, row, col) order, bit-identical
	// to the sequential scan.
	Workers int
}

// DefaultConfig returns the paper's protocol parameters.
func DefaultConfig() Config {
	return Config{
		CellSize: 8, WindowCellsX: 8, WindowCellsY: 16,
		ScaleFactor: 1.1, MaxLevels: 15, StrideCells: 1,
		Threshold: 0, NMSEpsilon: 0.2,
	}
}

// Validate reports configuration errors. The float checks are written
// so that NaN fails them; ±Inf is a legal Threshold.
func (c Config) Validate() error {
	switch {
	case c.CellSize <= 0 || c.WindowCellsX <= 0 || c.WindowCellsY <= 0:
		return fmt.Errorf("detect: non-positive geometry")
	case !(c.ScaleFactor > 1):
		return fmt.Errorf("detect: scale factor %v must exceed 1", c.ScaleFactor)
	case c.StrideCells <= 0:
		return fmt.Errorf("detect: stride %d must be positive", c.StrideCells)
	case !(c.NMSEpsilon >= 0 && c.NMSEpsilon <= 1):
		return fmt.Errorf("detect: NMS epsilon %v outside [0,1]", c.NMSEpsilon)
	case c.Workers < 0:
		return fmt.Errorf("detect: workers %d < 0", c.Workers)
	case math.IsNaN(c.Threshold):
		return errNaNThreshold
	}
	return nil
}

var errNaNThreshold = errors.New("detect: threshold is NaN")

// Detector combines an extractor and a scorer under a Config. Use
// NewDetector; a Detector must not be copied after first use (it owns
// an error counter shared across scans). Detect, DetectRaw and
// DetectStream may be called concurrently.
type Detector struct {
	Extractor Extractor
	Scorer    Scorer
	Config    Config

	// Trace, when set, anchors the scan's span tree (detect.image ->
	// level[i]) under an existing span, so a CLI's -trace-out shows
	// detection nested in its run; a Sequence frame's level spans nest
	// directly under it. Each level span is recorded by the worker that
	// claimed the level, so concurrent levels show as separate
	// per-worker lanes. Nil starts detect.image root spans instead, and
	// no Sequence level spans; spans are only created while telemetry
	// is enabled.
	Trace *obs.Span

	descErrors atomic.Uint64 // windows dropped: DescriptorInto failed
}

// NewDetector validates the configuration and returns a detector.
func NewDetector(e Extractor, s Scorer, cfg Config) (*Detector, error) {
	if e == nil || s == nil {
		return nil, fmt.Errorf("detect: nil extractor or scorer")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{Extractor: e, Scorer: s, Config: cfg}, nil
}

// DescriptorErrors returns the cumulative number of windows this
// detector dropped because the extractor failed to produce a
// descriptor (for example a truncated cell grid). The pre-parallel
// engine discarded these silently; the count makes shrunken scans
// visible to callers such as pcnn-eval.
func (d *Detector) DescriptorErrors() uint64 { return d.descErrors.Load() }

// Detect scans img and returns NMS-filtered detections in image
// coordinates, sorted by descending score.
func (d *Detector) Detect(img *imgproc.Image) []Detection {
	raw := d.DetectRaw(img)
	kept := NMS(raw, d.Config.NMSEpsilon)
	if obs.Enabled() {
		obs.CounterM("detect.nms_in").Add(uint64(len(raw)))
		obs.CounterM("detect.nms_out").Add(uint64(len(kept)))
	}
	return kept
}

// lessDet is the total order detections are processed in: descending
// score, ties broken by box geometry (X, then Y, W, H ascending). An
// explicit tie-break — rather than sort stability — makes NMS and
// Evaluate invariant to the input permutation, not merely
// deterministic for one ordering.
func lessDet(a, b Detection) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Box.X != b.Box.X {
		return a.Box.X < b.Box.X
	}
	if a.Box.Y != b.Box.Y {
		return a.Box.Y < b.Box.Y
	}
	if a.Box.W != b.Box.W {
		return a.Box.W < b.Box.W
	}
	return a.Box.H < b.Box.H
}

// NMS applies greedy non-maximum suppression: detections are taken in
// lessDet order (descending score, deterministic tie-break) and any
// remaining box overlapping a kept box with IoU > eps is discarded.
// It is NMSInto with a fresh destination; use NMSInto with a recycled
// slice to avoid the per-call result allocation.
func NMS(dets []Detection, eps float64) []Detection {
	return NMSInto(nil, dets, eps)
}

// nmsScratch is the recycled working state of one NMSInto call. The
// kept-box spatial index is a chained bucket map: head maps a grid
// cell to the most recently kept detection in it (as an index into the
// detections appended to dst this call), and next chains earlier ones,
// so clearing between calls is clear(head) + reslicing — no per-call
// map or slice construction.
type nmsScratch struct {
	sorted []Detection
	head   map[[2]int]int32
	next   []int32
	sorter detSorter
}

// detSorter implements sort.Interface over lessDet; driving sort.Sort
// with a pointer to it avoids the closure and interface allocations of
// sort.Slice.
type detSorter struct{ dets []Detection }

func (s *detSorter) Len() int           { return len(s.dets) }
func (s *detSorter) Less(i, j int) bool { return lessDet(s.dets[i], s.dets[j]) }
func (s *detSorter) Swap(i, j int)      { s.dets[i], s.dets[j] = s.dets[j], s.dets[i] }

var nmsPool = sync.Pool{New: func() any { return new(nmsScratch) }}

// NMSInto appends the NMS-filtered detections to dst and returns the
// extended slice — the same kept set and order as NMS, with zero
// steady-state allocations when dst has capacity (working state is
// pooled).
//
// Kept boxes are indexed in a uniform grid of cells sized to the
// largest box dimension S: a kept box can only suppress a candidate it
// intersects, and any intersecting box's top-left corner lies within
// (-S, S) of the candidate's, i.e. in the 3x3 cell neighborhood. The
// inner scan therefore touches only nearby kept boxes instead of all
// of them, while keeping exactly the greedy pass's kept set.
//
//pcnn:hotpath
func NMSInto(dst, dets []Detection, eps float64) []Detection {
	s := nmsPool.Get().(*nmsScratch)
	s.sorted = append(s.sorted[:0], dets...)
	s.sorter.dets = s.sorted
	sort.Sort(&s.sorter)
	cell := 1
	for _, d := range s.sorted {
		if d.Box.W > cell {
			cell = d.Box.W
		}
		if d.Box.H > cell {
			cell = d.Box.H
		}
	}
	if s.head == nil {
		//lint:allow hotalloc one-time scratch-map warm-up; cleared and reused across calls
		s.head = make(map[[2]int]int32)
	} else {
		clear(s.head)
	}
	s.next = s.next[:0]
	base := len(dst)
	for _, d := range s.sorted {
		cx, cy := floorDiv(d.Box.X, cell), floorDiv(d.Box.Y, cell)
		ok := true
	scan:
		for by := cy - 1; by <= cy+1; by++ {
			for bx := cx - 1; bx <= cx+1; bx++ {
				idx, found := s.head[[2]int{bx, by}]
				if !found {
					continue
				}
				// Chain order is newest-first; the kept/discard
				// decision only asks whether any kept box overlaps,
				// so traversal order cannot change the result.
				for i := idx; i >= 0; i = s.next[i] {
					if d.Box.IoU(dst[base+int(i)].Box) > eps {
						ok = false
						break scan
					}
				}
			}
		}
		if ok {
			k := int32(len(dst) - base)
			dst = append(dst, d)
			key := [2]int{cx, cy}
			prev, found := s.head[key]
			if !found {
				prev = -1
			}
			s.next = append(s.next, prev)
			s.head[key] = k
		}
	}
	s.sorter.dets = nil
	nmsPool.Put(s)
	return dst
}

// floorDiv returns floor(a/b) for b > 0 (Go's integer division
// truncates toward zero, which is wrong for negative coordinates).
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Evaluate computes the miss-rate/FPPI curve over a test set:
// dets[i] are the detections on image i and truths[i] its ground
// truth. A detection is a true positive when it overlaps an unmatched
// ground-truth box with IoU >= minIoU (0.5 in the paper); otherwise it
// is a false positive. The returned curve is sorted by ascending FPPI.
func Evaluate(dets [][]Detection, truths [][]dataset.Box, minIoU float64) *stats.Curve {
	type scored struct {
		score float64
		tp    bool
	}
	var all []scored
	totalGT := 0
	nImages := len(dets)
	for i := range dets {
		var gts []dataset.Box
		if i < len(truths) {
			gts = truths[i]
		}
		totalGT += len(gts)
		matched := make([]bool, len(gts))
		ds := append([]Detection(nil), dets[i]...)
		sort.Slice(ds, func(a, b int) bool { return lessDet(ds[a], ds[b]) })
		for _, det := range ds {
			best := -1
			bestIoU := minIoU
			for g, gt := range gts {
				if matched[g] {
					continue
				}
				if iou := det.Box.IoU(gt); iou >= bestIoU {
					best = g
					bestIoU = iou
				}
			}
			if best >= 0 {
				matched[best] = true
				all = append(all, scored{det.Score, true})
			} else {
				all = append(all, scored{det.Score, false})
			}
		}
	}
	curve := &stats.Curve{Name: "missrate-vs-fppi"}
	if nImages == 0 {
		return curve
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].score > all[j].score })
	tp, fp := 0, 0
	for i, s := range all {
		if s.tp {
			tp++
		} else {
			fp++
		}
		// Emit a point at each distinct threshold (last of equal
		// scores).
		if i+1 < len(all) && all[i+1].score == s.score {
			continue
		}
		miss := 1.0
		if totalGT > 0 {
			miss = 1 - float64(tp)/float64(totalGT)
		}
		curve.Points = append(curve.Points, stats.Point{
			X: float64(fp) / float64(nImages),
			Y: miss,
		})
	}
	curve.SortByX()
	return curve
}

// LogAvgMissRate summarizes a curve over the standard 10^-2..10^0
// FPPI range.
func LogAvgMissRate(c *stats.Curve) float64 {
	return stats.LogAvgMissRate(c, 0.01, 1, 9)
}

// BootstrapLAMR estimates a confidence interval for the log-average
// miss rate by resampling test images with replacement. It returns
// the central point estimate and the [lo, hi] bounds at the given
// confidence (e.g. 0.9). Rounds of 200+ give stable intervals.
func BootstrapLAMR(dets [][]Detection, truths [][]dataset.Box, minIoU float64,
	rounds int, confidence float64, seed int64) (point, lo, hi float64) {
	point = LogAvgMissRate(Evaluate(dets, truths, minIoU))
	if rounds <= 0 || len(dets) == 0 || confidence <= 0 || confidence >= 1 {
		return point, math.NaN(), math.NaN()
	}
	rng := rand.New(rand.NewSource(seed))
	samples := make([]float64, 0, rounds)
	rd := make([][]Detection, len(dets))
	rt := make([][]dataset.Box, len(dets))
	for r := 0; r < rounds; r++ {
		for i := range rd {
			k := rng.Intn(len(dets))
			rd[i] = dets[k]
			if k < len(truths) {
				rt[i] = truths[k]
			} else {
				rt[i] = nil
			}
		}
		v := LogAvgMissRate(Evaluate(rd, rt, minIoU))
		if !math.IsNaN(v) {
			samples = append(samples, v)
		}
	}
	if len(samples) == 0 {
		return point, math.NaN(), math.NaN()
	}
	alpha := (1 - confidence) / 2
	return point, stats.Quantile(samples, alpha), stats.Quantile(samples, 1-alpha)
}
