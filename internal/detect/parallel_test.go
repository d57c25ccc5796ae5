package detect

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/svm"
)

// withProcs raises GOMAXPROCS to at least n for the test, so the band
// and image pools are exercised even on single-CPU machines now that
// effectiveWorkers clamps to GOMAXPROCS(0).
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev >= n {
		return
	}
	runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// linScorer is a cheap deterministic allocation-free scorer: a dot
// product against a fixed pseudo-random weight cycle. Its score
// depends on every descriptor element, so any divergence in the
// parallel scan shows up bit-exactly.
type linScorer struct{ w []float64 }

func newLinScorer(seed int64, n int) linScorer {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return linScorer{w: w}
}

func (s linScorer) Score(x []float64) float64 {
	var v float64
	if len(x) <= len(s.w) {
		// The common shape (weights sized to the descriptor): a straight
		// dot product, no per-element modulo. Same terms, same order.
		w := s.w[:len(x)]
		for i, xi := range x {
			v += xi * w[i]
		}
		return v
	}
	for i, xi := range x {
		v += xi * s.w[i%len(s.w)]
	}
	return v
}

// testScorers names the two scorer kinds the differential suites run
// with: "lin", a linScorer, which the scan scores window by window
// through DescriptorInto, and "svm", an *svm.Model, which it scores
// four windows per pass through Extractor.LinearScoresInto.
var testScorers = []string{"lin", "svm"}

// newTestScorer returns a scorer of the named kind over n weights.
func newTestScorer(kind string, seed int64, n int) Scorer {
	if kind == "svm" {
		return newSVMScorer(seed, n)
	}
	return newLinScorer(seed, n)
}

// newSVMScorer returns a linear SVM with n pseudo-random weights and a
// nonzero bias.
func newSVMScorer(seed int64, n int) *svm.Model {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return &svm.Model{W: w, B: -0.3125}
}

// legacyDetectRaw is the pre-parallel sequential scan (a fresh grid
// per level, one GridInto, then DescriptorInto into a fresh slice and
// Score per window, whatever the scorer), kept as the differential
// reference the engine must match bit-for-bit.
func legacyDetectRaw(d *Detector, img *imgproc.Image) []Detection {
	cfg := d.Config
	winW := cfg.WindowCellsX * cfg.CellSize
	winH := cfg.WindowCellsY * cfg.CellSize
	levels := imgproc.Pyramid(img, cfg.ScaleFactor, winW, winH, cfg.MaxLevels)
	var out []Detection
	for li, level := range levels {
		scale := math.Pow(cfg.ScaleFactor, float64(li))
		var grid hog.Grid
		d.Extractor.GridInto(&grid, level)
		for gy := 0; gy+cfg.WindowCellsY <= grid.CellsY; gy += cfg.StrideCells {
			for gx := 0; gx+cfg.WindowCellsX <= grid.CellsX; gx += cfg.StrideCells {
				desc, err := d.Extractor.DescriptorInto(nil, &grid, gx, gy)
				if err != nil {
					continue
				}
				s := d.Scorer.Score(desc)
				if s < cfg.Threshold {
					continue
				}
				out = append(out, Detection{
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
	return out
}

// testDetector builds a HoG detector with the cheap linear scorer.
func testDetector(t testing.TB, cfg Config) *Detector {
	t.Helper()
	return scoredDetector(t, cfg, "lin")
}

// scoredDetector builds a HoG detector with a testScorers scorer sized
// to the descriptor.
func scoredDetector(t testing.TB, cfg Config, kind string) *Detector {
	t.Helper()
	ext, err := hog.NewExtractor(hog.Reference())
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(ext, newTestScorer(kind, 3, ext.Config().DescriptorLen()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// testImages returns deterministic scan targets: a textured scene and
// a noise image.
func testImages(w, h int) []*imgproc.Image {
	gen := dataset.NewGenerator(41)
	scene := gen.Scene(w, h, 1, h/2, h-8)
	return []*imgproc.Image{scene.Image, gen.NegativeImage(w, h)}
}

// TestDetectWorkersBitIdentical is the differential property test: the
// engine's output must be byte-identical to the legacy sequential scan
// across worker counts, strides, and pyramid depths — including more
// workers than levels (a one-level 64x128 frame, depths 1 and 2 at 8
// workers) — for both scorer kinds: the per-window path and the
// LinearScoresInto kernel path.
func TestDetectWorkersBitIdentical(t *testing.T) {
	withProcs(t, 8)
	imgs := append(testImages(224, 192), dataset.NewGenerator(42).NegativeImage(64, 128))
	strides := []int{1, 2}
	depths := []int{1, 2, 3, 0} // 0 = scan until the window no longer fits
	if testing.Short() {
		strides = []int{1}
		depths = []int{2}
	}
	for _, kind := range testScorers {
		for _, stride := range strides {
			for _, depth := range depths {
				cfg := DefaultConfig()
				cfg.StrideCells = stride
				cfg.MaxLevels = depth
				cfg.Threshold = -1e18 // keep every window: maximal merge surface
				det := scoredDetector(t, cfg, kind)
				for i, img := range imgs {
					want := legacyDetectRaw(det, img)
					for _, workers := range []int{1, 2, 3, 8} {
						det.Config.Workers = workers
						got := det.DetectRaw(img)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s stride %d depth %d img %d workers %d: raw scan diverges (%d vs %d dets)",
								kind, stride, depth, i, workers, len(got), len(want))
						}
						kept := det.Detect(img)
						wantKept := NMS(want, cfg.NMSEpsilon)
						if !reflect.DeepEqual(kept, wantKept) {
							t.Fatalf("%s stride %d depth %d img %d workers %d: NMS output diverges",
								kind, stride, depth, i, workers)
						}
					}
				}
			}
		}
	}
}

// TestDetectAllMatchesDetect checks the multi-image pipeline returns
// exactly the per-image Detect results, in input order, at every
// worker count.
func TestDetectAllMatchesDetect(t *testing.T) {
	withProcs(t, 8)
	imgs := testImages(192, 176)
	imgs = append(imgs, testImages(160, 160)...)
	cfg := DefaultConfig()
	cfg.MaxLevels = 2
	cfg.Threshold = -1e18
	det := testDetector(t, cfg)
	var want [][]Detection
	for _, img := range imgs {
		want = append(want, det.Detect(img))
	}
	for _, workers := range []int{1, 2, 3, 8} {
		det.Config.Workers = workers
		got := det.DetectAll(imgs)
		if len(got) != len(want) {
			t.Fatalf("workers %d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers %d image %d: DetectAll diverges from Detect", workers, i)
			}
		}
	}
}

// TestDetectParallelShort is the always-on race-lane smoke test: a
// quick multi-worker scan plus batch so `go test -short -race`
// exercises the level-claim schedule with all four workers started
// (runLevels starts min(workers, levels) of them, so the frame has four
// pyramid levels), both row-scorer paths and the image pool.
func TestDetectParallelShort(t *testing.T) {
	withProcs(t, 4)
	cfg := DefaultConfig()
	cfg.MaxLevels = 0
	cfg.Threshold = -1e18
	cfg.Workers = 4
	imgs := testImages(160, 176)
	requireLevels(t, cfg, imgs[0], cfg.Workers)
	for _, kind := range testScorers {
		det := scoredDetector(t, cfg, kind)
		want := legacyDetectRaw(det, imgs[0])
		if got := det.DetectRaw(imgs[0]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: parallel scan diverges from sequential reference", kind)
		}
		if got := det.DetectAll(imgs); len(got) != len(imgs) {
			t.Fatalf("%s: DetectAll returned %d results, want %d", kind, len(got), len(imgs))
		}
	}
}

// requireLevels fails the test unless img has at least n pyramid
// levels under cfg, so a multi-worker test cannot quietly run on the
// caller alone.
func requireLevels(t *testing.T, cfg Config, img *imgproc.Image, n int) {
	t.Helper()
	winW, winH := cfg.WindowCellsX*cfg.CellSize, cfg.WindowCellsY*cfg.CellSize
	if got := len(imgproc.PyramidSizes(img.W, img.H, cfg.ScaleFactor, winW, winH, cfg.MaxLevels)); got < n {
		t.Fatalf("%dx%d frame has %d pyramid levels, want at least %d", img.W, img.H, got, n)
	}
}

// TestDetectConcurrentCallers drives one Detector from four goroutines
// at once, each over its own frames, with level workers inside every
// call: each result must equal serial Detect. Concurrent calls take
// distinct scan states, so this is also the race lane's check that
// the free list hands no state to two scans.
func TestDetectConcurrentCallers(t *testing.T) {
	withProcs(t, 4)
	cfg := DefaultConfig()
	cfg.MaxLevels = 3
	cfg.Threshold = -1e18
	det := testDetector(t, cfg)
	gen := dataset.NewGenerator(23)
	const callers, frames = 4, 3
	imgs := make([][]*imgproc.Image, callers)
	want := make([][][]Detection, callers)
	for c := range imgs {
		for f := 0; f < frames; f++ {
			img := gen.NegativeImage(128+16*c, 160)
			imgs[c] = append(imgs[c], img)
			want[c] = append(want[c], det.Detect(img))
		}
	}
	det.Config.Workers = 2
	got := make([][][]Detection, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, img := range imgs[c] {
				got[c] = append(got[c], det.Detect(img))
			}
		}()
	}
	wg.Wait()
	for c := range want {
		for f := range want[c] {
			if !reflect.DeepEqual(got[c][f], want[c][f]) {
				t.Fatalf("caller %d frame %d: concurrent Detect diverges from serial (%d vs %d dets)",
					c, f, len(got[c][f]), len(want[c][f]))
			}
		}
	}
}

// TestDetectFrameBytesBelowLevelImage pins what the level workers'
// reused buffers saved: a warm one-worker Detect of a 640x480 frame
// allocates less per frame than one resized pyramid level would take,
// where it used to allocate every level of the pyramid.
func TestDetectFrameBytesBelowLevelImage(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation sizes")
	}
	cfg := DefaultConfig()
	det := testDetector(t, cfg)
	img := dataset.NewGenerator(31).Scene(640, 480, 2, 130, 380).Image
	winW, winH := cfg.WindowCellsX*cfg.CellSize, cfg.WindowCellsY*cfg.CellSize
	sizes := imgproc.PyramidSizes(img.W, img.H, cfg.ScaleFactor, winW, winH, cfg.MaxLevels)
	if len(sizes) < 2 {
		t.Fatal("frame has no resized level")
	}
	levelBytes := uint64(sizes[1].W*sizes[1].H) * 8
	det.Detect(img) // warm the scan state
	const frames = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		det.Detect(img)
	}
	runtime.ReadMemStats(&after)
	perFrame := (after.TotalAlloc - before.TotalAlloc) / frames
	if perFrame >= levelBytes {
		t.Fatalf("warm Detect allocates %d B per frame, want < %d B (one %dx%d level)",
			perFrame, levelBytes, sizes[1].W, sizes[1].H)
	}
	t.Logf("warm Detect: %d B per frame; level 1 image %d B", perFrame, levelBytes)
}

// TestWorkerUtilizationHistogram checks the per-image utilization
// metric: with telemetry on and a parallel scan, every DetectRaw must
// observe one ratio in (0, 1] into the bucketed histogram (so p50/p99
// survive into bench snapshots), and a single-worker scan must observe
// nothing.
func TestWorkerUtilizationHistogram(t *testing.T) {
	withProcs(t, 4)
	obs.Enable()
	t.Cleanup(obs.Disable)
	h := obs.BucketHistogramM("detect.worker_utilization", obs.RatioBuckets)
	base := h.Count()
	cfg := DefaultConfig()
	cfg.Threshold = 1e18
	cfg.Workers = 1
	det := testDetector(t, cfg)
	img := dataset.NewGenerator(4).NegativeImage(160, 288)
	det.DetectRaw(img)
	if got := h.Count(); got != base {
		t.Fatalf("single-worker scan observed utilization (%d -> %d)", base, got)
	}
	const images = 3
	det.Config.Workers = 4
	for i := 0; i < images; i++ {
		det.DetectRaw(img)
	}
	if got := h.Count(); got != base+images {
		t.Fatalf("utilization count = %d, want %d (one observation per parallel image)", got-base, images)
	}
	mean := h.Sum() / float64(h.Count())
	if mean <= 0 || mean > 1.0001 || math.IsNaN(mean) {
		t.Fatalf("utilization mean %v outside (0, 1]", mean)
	}
}

// TestLevelWindowsHistogram checks the per-level window histogram
// against the frame totals, as deltas with telemetry on, across one
// Detect and across three Sequence frames (a cold one, then two with
// motion): detect.level_windows gains one observation per pyramid level
// per frame, and its sum grows by exactly the detect.windows_scanned
// delta.
func TestLevelWindowsHistogram(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	det := testDetector(t, DefaultConfig())
	img := dataset.NewGenerator(4).NegativeImage(160, 288)
	h := obs.BucketHistogramM("detect.level_windows", obs.WindowBuckets)
	scanned := obs.CounterM("detect.windows_scanned")
	levels := obs.CounterM("detect.pyramid_levels")
	count0, sum0, scanned0, levels0 := h.Count(), h.Sum(), scanned.Value(), levels.Value()
	det.Detect(img)
	windows := scanned.Value() - scanned0
	if windows == 0 {
		t.Fatal("Detect scanned no windows; test is vacuous")
	}
	if got := h.Sum() - sum0; got != float64(windows) {
		t.Errorf("Detect: level_windows sum grew by %v, want windows_scanned delta %d", got, windows)
	}
	if got, want := h.Count()-count0, levels.Value()-levels0; got != want {
		t.Errorf("Detect: level_windows gained %d observations, want one per level (%d)", got, want)
	}

	const frames = 3
	seq := det.NewSequence()
	count0, sum0, scanned0 = h.Count(), h.Sum(), scanned.Value()
	for _, f := range seqFrames(t, 4, "walkers", 160, 288, frames) {
		seq.Next(f.Image)
	}
	windows = scanned.Value() - scanned0
	if windows == 0 {
		t.Fatal("Sequence scanned no windows; test is vacuous")
	}
	if got := h.Sum() - sum0; got != float64(windows) {
		t.Errorf("Sequence: level_windows sum grew by %v, want windows_scanned delta %d", got, windows)
	}
	if got, want := h.Count()-count0, uint64(frames*len(seq.lv)); got != want {
		t.Errorf("Sequence: level_windows gained %d observations, want one per level per frame (%d)", got, want)
	}
}

// rescanLevel primes a Sequence on img and marks every cell row of its
// level 0 dirty with no column ranges, so each scanLevel call rescans
// every window row of a warm grid through the row scorer.
func rescanLevel(t testing.TB, det *Detector, img *imgproc.Image) (*Sequence, *seqLevel) {
	t.Helper()
	seq := det.NewSequence()
	seq.Next(img)
	lv := seq.lv[0]
	if lv.nRows == 0 {
		t.Fatal("test image too small")
	}
	for r := range lv.dirty {
		lv.dirty[r] = true
	}
	lv.nColRanges = 0
	return seq, lv
}

// TestDetectSteadyStateAllocs pins the 0-alloc inner window loop: once
// scratch buffers are warm, rescanning every window row of a level
// allocates nothing (scores and descriptors append into per-worker
// scratch, detections into recycled slices), on both row-scorer paths;
// and neither does a whole warm one-shot frame — the cold frame behind
// Detect — appending into a reused slice.
func TestDetectSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = -1e18 // every window appends a detection
	img := dataset.NewGenerator(9).NegativeImage(160, 160)
	for _, kind := range testScorers {
		det := scoredDetector(t, cfg, kind)
		seq, lv := rescanLevel(t, det, img)
		sc := &seq.ws[0]
		seq.scanLevel(sc, lv) // warm both cache buffers
		if allocs := testing.AllocsPerRun(10, func() { seq.scanLevel(sc, lv) }); allocs != 0 {
			t.Fatalf("%s: steady-state level scan allocates %.1f/op, want 0", kind, allocs)
		}
		st := det.getState()
		raw := st.detectOnce(img, 1, nil) // warm the levels and worker buffers
		allocs := testing.AllocsPerRun(10, func() { raw = st.detectOnce(img, 1, raw[:0]) })
		putState(st)
		if allocs != 0 {
			t.Fatalf("%s: warm one-shot frame allocates %.1f/op, want 0", kind, allocs)
		}
		if !reflect.DeepEqual(raw, legacyDetectRaw(det, img)) {
			t.Fatalf("%s: one-shot frame into a reused slice diverges from the per-window legacy scan", kind)
		}
	}
}

// failEveryN wraps an Extractor, failing DescriptorInto on every n-th
// window to exercise the error accounting.
type failEveryN struct {
	Extractor
	n     int
	calls int
}

func (f *failEveryN) DescriptorInto(dst []float64, g *hog.Grid, cellX, cellY int) ([]float64, error) {
	f.calls++
	if f.calls%f.n == 0 {
		return dst, errFail
	}
	return f.Extractor.DescriptorInto(dst, g, cellX, cellY)
}

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "synthetic descriptor failure" }

// TestDescriptorErrorsCounted checks dropped windows are counted
// instead of silently discarded.
func TestDescriptorErrorsCounted(t *testing.T) {
	ext, err := hog.NewExtractor(hog.Reference())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxLevels = 1
	det, err := NewDetector(
		&failEveryN{Extractor: ext, n: 3},
		newLinScorer(3, ext.Config().DescriptorLen()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := dataset.NewGenerator(12).NegativeImage(160, 160)
	det.DetectRaw(img)
	if det.DescriptorErrors() == 0 {
		t.Fatal("descriptor errors not counted")
	}
	before := det.DescriptorErrors()
	det.DetectRaw(img)
	if det.DescriptorErrors() <= before {
		t.Fatal("descriptor error counter did not accumulate")
	}
}

// nmsNaive is the original O(n^2) greedy pass over lessDet order, the
// reference the grid-bucketed NMS must match exactly.
func nmsNaive(dets []Detection, eps float64) []Detection {
	sorted := append([]Detection(nil), dets...)
	sortDets(sorted)
	var kept []Detection
	for _, d := range sorted {
		ok := true
		for _, k := range kept {
			if d.Box.IoU(k.Box) > eps {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, d)
		}
	}
	return kept
}

func sortDets(ds []Detection) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && lessDet(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// randomDetections produces overlapping clusters with duplicate
// scores, negative coordinates, and varied box sizes — the hostile
// corners of the bucketing scheme.
func randomDetections(rng *rand.Rand, n int) []Detection {
	dets := make([]Detection, 0, n)
	for i := 0; i < n; i++ {
		w := 8 + rng.Intn(120)
		h := 8 + rng.Intn(200)
		dets = append(dets, Detection{
			Box: dataset.Box{
				X: rng.Intn(400) - 100,
				Y: rng.Intn(400) - 100,
				W: w, H: h,
			},
			Score: float64(rng.Intn(20)) / 4, // frequent exact ties
		})
	}
	return dets
}

// TestNMSMatchesNaive differential-tests the grid-bucketed NMS against
// the quadratic greedy reference across epsilons and cluster shapes.
func TestNMSMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		dets := randomDetections(rng, 3+rng.Intn(200))
		for _, eps := range []float64{0, 0.2, 0.5, 1} {
			got := NMS(dets, eps)
			want := nmsNaive(dets, eps)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d eps %v: bucketed NMS kept %d, naive kept %d",
					trial, eps, len(got), len(want))
			}
		}
	}
}

// TestNMSPermutationInvariant is the determinism regression: shuffling
// the input must not change the kept set, even with duplicate scores.
func TestNMSPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		dets := randomDetections(rng, 60)
		want := NMS(dets, 0.2)
		for p := 0; p < 5; p++ {
			shuffled := append([]Detection(nil), dets...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			if got := NMS(shuffled, 0.2); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: NMS output depends on input order", trial)
			}
		}
	}
}

// TestNMSIntoSteadyStateAllocs pins NMSInto's 0-alloc contract: with a
// warm pooled scratch and a dst with capacity, filtering allocates
// nothing.
func TestNMSIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode makes sync.Pool drop puts; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(7))
	dets := randomDetections(rng, 150)
	dst := NMSInto(nil, dets, 0.2) // warm scratch and size dst
	allocs := testing.AllocsPerRun(10, func() {
		dst = NMSInto(dst[:0], dets, 0.2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state NMSInto allocates %.1f/op, want 0", allocs)
	}
}

// TestNMSIntoAppends checks NMSInto extends dst in place, leaving the
// prefix untouched.
func TestNMSIntoAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dets := randomDetections(rng, 80)
	want := NMS(dets, 0.3)
	prefix := Detection{Box: dataset.Box{X: -7, Y: -7, W: 1, H: 1}, Score: 99}
	got := NMSInto([]Detection{prefix}, dets, 0.3)
	if len(got) != len(want)+1 || !reflect.DeepEqual(got[0], prefix) {
		t.Fatalf("NMSInto disturbed dst prefix (len %d, want %d)", len(got), len(want)+1)
	}
	if !reflect.DeepEqual(got[1:], want) {
		t.Fatal("NMSInto appended a different kept set than NMS")
	}
}

// TestEvaluatePermutationInvariant checks the miss-rate/FPPI curve is
// independent of per-image detection order (equal-score tie-breaks
// included).
func TestEvaluatePermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	truths := [][]dataset.Box{
		{{X: 10, Y: 10, W: 60, H: 120}, {X: 200, Y: 40, W: 60, H: 120}},
		{{X: 50, Y: 50, W: 60, H: 120}},
		nil,
	}
	dets := [][]Detection{
		randomDetections(rng, 40),
		randomDetections(rng, 30),
		randomDetections(rng, 20),
	}
	want := Evaluate(dets, truths, 0.5)
	for p := 0; p < 8; p++ {
		shuffled := make([][]Detection, len(dets))
		for i := range dets {
			shuffled[i] = append([]Detection(nil), dets[i]...)
			rng.Shuffle(len(shuffled[i]), func(a, b int) {
				shuffled[i][a], shuffled[i][b] = shuffled[i][b], shuffled[i][a]
			})
		}
		got := Evaluate(shuffled, truths, 0.5)
		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("permutation %d: curve depends on detection order", p)
		}
	}
}
