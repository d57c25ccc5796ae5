package detect

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/napprox"
	"repro/internal/obs"
	"repro/internal/parrot"
)

// seqFrames renders a named scenario, failing the test on error.
func seqFrames(t testing.TB, seed int64, scenario string, w, h, n int) []dataset.Frame {
	t.Helper()
	frames, err := dataset.NewGenerator(seed).FrameSequence(scenario, w, h, n)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// seqTestExtractors is the test-side mirror of benchExtractors: one
// deterministic extractor per paradigm.
func seqTestExtractors(t testing.TB) map[string]Extractor {
	t.Helper()
	ref, err := hog.NewExtractor(hog.Reference())
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := hog.NewFPGAExtractor(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	na, err := napprox.New(napprox.TrueNorthConfig(), hog.NormL2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := eedn.NewParrotNet(parrot.NBins, 64, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := parrot.NewExtractor(net, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Extractor{"hog": ref, "fpga": fpga, "napprox": na, "parrot": pr}
}

// perFrameWant runs independent per-frame Detect calls — the reference
// the temporal engine must match bit for bit — and holds each to NMS of
// the per-window legacy scan, so the chain ends at an oracle that calls
// DescriptorInto and Score for every window whatever the scorer.
func perFrameWant(t *testing.T, det *Detector, frames []dataset.Frame) [][]Detection {
	t.Helper()
	want := make([][]Detection, len(frames))
	for i, f := range frames {
		want[i] = append([]Detection(nil), det.Detect(f.Image)...)
		if legacy := NMS(legacyDetectRaw(det, f.Image), det.Config.NMSEpsilon); !reflect.DeepEqual(want[i], legacy) {
			t.Fatalf("frame %d: Detect diverges from the per-window legacy scan (%d vs %d dets)",
				i, len(want[i]), len(legacy))
		}
	}
	return want
}

// descriptorLen returns the length of ext's window descriptor.
func descriptorLen(t testing.TB, ext Extractor) int {
	t.Helper()
	var g hog.Grid
	ext.GridInto(&g, imgproc.New(64, 128))
	d, err := ext.DescriptorInto(nil, &g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return len(d)
}

// TestSequenceMatchesPerFrame is the temporal differential property
// test: for static, moving, panning, jittering, and globally-changing
// sequences, the Sequence output must be bit-identical to independent
// per-frame Detect calls at every worker count and stride — including
// the strides that break pan alignment and force the fallback, and more
// workers than levels (a one-level 64x128 stream, depths 2 and 3 at 8
// workers) — for both scorer kinds.
func TestSequenceMatchesPerFrame(t *testing.T) {
	withProcs(t, 8)
	scenarios := []string{"static", "walkers", "pan", "jitter", "lightramp"}
	strides := []int{1, 2}
	geoms := []struct{ w, h, maxLevels int }{{168, 176, 3}, {168, 176, 2}, {64, 128, 0}}
	if testing.Short() {
		scenarios = []string{"walkers", "pan"}
		strides = []int{1}
		geoms = []struct{ w, h, maxLevels int }{{168, 176, 3}, {64, 128, 0}}
	}
	for _, kind := range testScorers {
		for _, scenario := range scenarios {
			for _, geom := range geoms {
				frames := seqFrames(t, 7, scenario, geom.w, geom.h, 5)
				for _, stride := range strides {
					cfg := DefaultConfig()
					cfg.MaxLevels = geom.maxLevels
					cfg.StrideCells = stride
					cfg.Threshold = -1e18 // keep every window: maximal reuse surface
					det := scoredDetector(t, cfg, kind)
					det.Config.Workers = 1
					want := perFrameWant(t, det, frames)
					for _, workers := range []int{1, 2, 8} {
						det.Config.Workers = workers
						seq := det.NewSequence()
						for i, f := range frames {
							got := seq.NextPanned(f.Image, f.PanX, f.PanY)
							if !reflect.DeepEqual(got, want[i]) {
								t.Fatalf("%s %s %dx%d depth %d stride %d workers %d frame %d: temporal diverges (%d vs %d dets)",
									kind, scenario, geom.w, geom.h, geom.maxLevels, stride, workers, i, len(got), len(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestSequenceParadigmsBitIdentical sweeps the differential contract
// across every extractor paradigm on a moving sequence, with the cyclic
// linScorer and with an *svm.Model sized to each paradigm's descriptor.
func TestSequenceParadigmsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("paradigm sweep is covered by the full lane")
	}
	withProcs(t, 4)
	frames := seqFrames(t, 19, "walkers", 144, 160, 4)
	for name, ext := range seqTestExtractors(t) {
		for _, kind := range testScorers {
			n := 4096 // linScorer cycles its weights over longer descriptors
			if kind == "svm" {
				n = descriptorLen(t, ext)
			}
			cfg := DefaultConfig()
			cfg.MaxLevels = 2
			cfg.Threshold = -1e18
			det, err := NewDetector(ext, newTestScorer(kind, 3, n), cfg)
			if err != nil {
				t.Fatal(err)
			}
			det.Config.Workers = 2
			want := perFrameWant(t, det, frames)
			seq := det.NewSequence()
			for i, f := range frames {
				if got := seq.Next(f.Image); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s %s frame %d: temporal diverges (%d vs %d dets)",
						name, kind, i, len(got), len(want[i]))
				}
			}
		}
	}
}

// TestSequenceHintRobustness feeds deliberately wrong (but aligned)
// pan hints: the verify pass must reject them and the output must stay
// identical to per-frame detection. Also exercises DetectSequence.
func TestSequenceHintRobustness(t *testing.T) {
	frames := seqFrames(t, 13, "walkers", 160, 160, 4)
	cfg := DefaultConfig()
	cfg.MaxLevels = 2
	cfg.Threshold = -1e18
	det := testDetector(t, cfg)
	want := perFrameWant(t, det, frames)
	seq := det.NewSequence()
	for i, f := range frames {
		// A bogus one-cell pan claim on a static-camera sequence.
		if got := seq.NextPanned(f.Image, 8, -8); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("frame %d: wrong pan hint corrupted output", i)
		}
	}
	lied := make([]dataset.Frame, len(frames))
	for i, f := range frames {
		lied[i] = f
		if i > 0 {
			lied[i].PanX, lied[i].PanY = -16, 8
		}
	}
	all := det.DetectSequence(lied)
	for i := range frames {
		if !reflect.DeepEqual(all[i], want[i]) {
			t.Fatalf("DetectSequence frame %d diverges under wrong hints", i)
		}
	}
}

// TestSequenceParallelShort is the always-on race-lane smoke test for
// the temporal path: a quick multi-worker sequence with motion, so
// `go test -short -race` exercises the level-claim schedule with all
// four workers started (the frames have four pyramid levels), each
// worker's refresh, grid update and row scan into its own level's
// cache, both row-scorer paths and the merge after the join. The
// merged raw candidates must equal the per-window legacy scan's, not
// only their NMS output.
func TestSequenceParallelShort(t *testing.T) {
	withProcs(t, 4)
	cfg := DefaultConfig()
	cfg.MaxLevels = 0
	cfg.Threshold = -1e18
	cfg.Workers = 4
	frames := seqFrames(t, 11, "walkers", 160, 176, 3)
	requireLevels(t, cfg, frames[0].Image, cfg.Workers)
	for _, kind := range testScorers {
		det := scoredDetector(t, cfg, kind)
		want := perFrameWant(t, det, frames)
		seq := det.NewSequence()
		for i, f := range frames {
			if got := seq.Next(f.Image); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s frame %d: parallel temporal scan diverges", kind, i)
			}
			if !reflect.DeepEqual(seq.raw, legacyDetectRaw(det, f.Image)) {
				t.Fatalf("%s frame %d: raw candidates diverge from the per-window legacy scan", kind, i)
			}
		}
	}
}

// TestSequenceSteadyStateAllocs pins the 0-alloc steady-state frame
// loop: once a static sequence is warm, a whole Next — diff, reuse
// classification, cache assembly, NMS — allocates nothing, with either
// scorer kind, with telemetry off and on (per-level histograms, and no
// level span without a parent span).
func TestSequenceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode makes sync.Pool drop puts; alloc counts are meaningless")
	}
	cfg := DefaultConfig()
	cfg.Threshold = -1e18 // every window carries a detection through the cache
	img := dataset.NewGenerator(9).NegativeImage(160, 160)
	for _, telemetry := range []bool{false, true} {
		if telemetry {
			obs.Enable()
			t.Cleanup(obs.Disable)
		}
		for _, kind := range testScorers {
			det := scoredDetector(t, cfg, kind)
			seq := det.NewSequence()
			for i := 0; i < 3; i++ {
				seq.Next(img)
			}
			if allocs := testing.AllocsPerRun(10, func() { seq.Next(img) }); allocs != 0 {
				t.Fatalf("%s telemetry %v: steady-state frame loop allocates %v times per frame, want 0",
					kind, telemetry, allocs)
			}
		}
	}
}

// TestSequenceTelemetry checks the obsgate-compliant temporal metrics:
// frames counted, clean window rows reported as skipped bands, one
// reuse-ratio observation per frame, and a positive frames/s gauge.
func TestSequenceTelemetry(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	frames := obs.CounterM("detect.frames")
	skipped := obs.CounterM("detect.bands_skipped")
	cells := obs.CounterM("detect.cells_recomputed")
	ratio := obs.BucketHistogramM("detect.reuse_ratio", obs.RatioBuckets)
	f0, s0, c0, r0 := frames.Value(), skipped.Value(), cells.Value(), ratio.Count()

	cfg := DefaultConfig()
	cfg.MaxLevels = 2
	det := testDetector(t, cfg)
	img := dataset.NewGenerator(21).NegativeImage(160, 160)
	seq := det.NewSequence()
	const n = 3
	for i := 0; i < n; i++ {
		seq.Next(img)
	}
	if got := frames.Value() - f0; got != n {
		t.Fatalf("detect.frames advanced %d, want %d", got, n)
	}
	if skipped.Value() == s0 {
		t.Fatal("static sequence reported no skipped bands")
	}
	if cells.Value() == c0 {
		t.Fatal("priming frame reported no recomputed cells")
	}
	if got := ratio.Count() - r0; got != n {
		t.Fatalf("reuse_ratio observed %d times, want %d", got, n)
	}
	if fps := obs.GaugeM("detect.frames_per_sec").Value(); fps <= 0 {
		t.Fatalf("frames_per_sec gauge %v, want > 0", fps)
	}
}

// TestSequenceDimensionChange checks a mid-stream frame-size change
// reinitializes cleanly and stays identical to per-frame detection.
func TestSequenceDimensionChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxLevels = 2
	cfg.Threshold = -1e18
	det := testDetector(t, cfg)
	gen := dataset.NewGenerator(5)
	imgs := []*imgproc.Image{
		gen.NegativeImage(160, 160),
		gen.NegativeImage(160, 160),
		gen.NegativeImage(176, 144),
		gen.NegativeImage(176, 144),
	}
	seq := det.NewSequence()
	for i, img := range imgs {
		want := det.Detect(img)
		if got := seq.Next(img); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d (%dx%d): diverges after dimension change", i, img.W, img.H)
		}
	}
}

// TestSequenceConfigChange changes the detector's level geometry
// between frames — MaxLevels, StrideCells, ScaleFactor and Threshold —
// and requires every Sequence frame's raw candidates and output, and
// every DetectRaw through the pooled one-shot states, to equal the
// per-window legacy scan: both must rebuild their levels for the
// Config they were built for, not only for a new frame size. Changing
// Workers alone keeps the levels.
func TestSequenceConfigChange(t *testing.T) {
	withProcs(t, 2)
	frames := seqFrames(t, 17, "walkers", 160, 176, 7)
	steps := []func(c *Config){
		func(c *Config) {},
		func(c *Config) { c.MaxLevels = 1 },
		func(c *Config) { c.StrideCells = 2 },
		func(c *Config) { c.MaxLevels = 3 },
		func(c *Config) { c.ScaleFactor = 1.2 },
		func(c *Config) { c.StrideCells, c.ScaleFactor = 1, 1.1 },
		func(c *Config) { c.Threshold = 0 },
	}
	for _, kind := range testScorers {
		cfg := DefaultConfig()
		cfg.MaxLevels = 3
		cfg.Threshold = -1e18
		det := scoredDetector(t, cfg, kind)
		seq := det.NewSequence()
		for i, f := range frames {
			steps[i](&det.Config)
			raw := legacyDetectRaw(det, f.Image)
			if got := det.DetectRaw(f.Image); !reflect.DeepEqual(got, raw) {
				t.Fatalf("%s frame %d (%+v): DetectRaw diverges after a config change", kind, i, det.Config)
			}
			got := seq.Next(f.Image)
			if !reflect.DeepEqual(seq.raw, raw) || !reflect.DeepEqual(got, NMS(raw, det.Config.NMSEpsilon)) {
				t.Fatalf("%s frame %d (%+v): Sequence diverges after a config change", kind, i, det.Config)
			}
		}
		lv0 := seq.lv[0]
		det.Config.Workers = 2
		seq.Next(frames[len(frames)-1].Image)
		if seq.lv[0] != lv0 {
			t.Fatalf("%s: a Workers change rebuilt the levels", kind)
		}
	}
}

// finalized reports whether done is closed within a few garbage
// collections.
func finalized(done <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(5 * time.Millisecond):
		}
	}
	return false
}

// TestDetectKeepsNoFrame checks that a pooled one-shot state lets go of
// the caller's frame: an image Detect scanned (with level workers) must
// be collectable once the caller drops it, and so must every image
// DetectStream's source handed out.
func TestDetectKeepsNoFrame(t *testing.T) {
	withProcs(t, 2)
	cfg := DefaultConfig()
	cfg.MaxLevels = 2
	cfg.Workers = 2
	det := testDetector(t, cfg)
	gen := dataset.NewGenerator(27)
	done := make(chan struct{})
	func() {
		img := gen.NegativeImage(160, 176)
		runtime.SetFinalizer(img, func(*imgproc.Image) { close(done) })
		det.Detect(img)
	}()
	if !finalized(done) {
		t.Fatal("Detect kept the caller's image alive")
	}

	const n = 4
	var freed atomic.Int32
	all := make(chan struct{})
	det.DetectStream(n, func(i int) *imgproc.Image {
		img := dataset.NewGenerator(int64(i)).NegativeImage(160, 176)
		runtime.SetFinalizer(img, func(*imgproc.Image) {
			if freed.Add(1) == n {
				close(all)
			}
		})
		return img
	}, func(int, []Detection) {})
	if !finalized(all) {
		t.Fatalf("DetectStream kept %d of %d source images alive", n-int(freed.Load()), n)
	}
}

// sameDets reports whether a and b hold the same detections in the
// same order, a nil slice matching an empty one.
func sameDets(a, b []Detection) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// fuzzFrame returns a w x h frame of 8-bit grey levels drawn from rng.
func fuzzFrame(rng *rand.Rand, w, h int) *imgproc.Image {
	img := imgproc.New(w, h)
	for i := range img.Pix {
		img.Pix[i] = float64(rng.Intn(256)) / 255
	}
	return img
}

// FuzzSequenceMatchesPerFrame drives the temporal engine through
// fuzzer-built frame streams and holds every frame to the frozen
// per-window oracle: the merged raw candidates (seq.raw) must equal
// legacyDetectRaw, and the returned detections NMS of them.
//
// knobs picks the scorer kind (bit 0), StrideCells 1-2 (bit 1),
// MaxLevels 0-3 (bits 2-3), Workers 1-4 (bits 4-5), a threshold
// that keeps every window or about half (bit 6) and the extractor
// (bit 7): the reference HoG when clear, else seed mod 3 picks
// FPGA-HoG, NApprox-64 or the untrained parrot at window 0, as in
// seqTestExtractors. The first frame is
// w0 x h0 (each side mod 201, so 0-200 px: below one window, not a
// multiple of 8). ops then adds a frame per 6 bytes [op, a, b, c, d,
// e]; op%4 picks the frame:
//
//	0: a rectangle at (a, b) of (1+c%48) x (1+d%48) px, noise (e < 128)
//	   or the grey level e
//	1: the content moved by (int8(a)%25, int8(b)%25) px, the exposed
//	   strips new noise; c&1 aligns the move to 8 px, c&3 == 3 to 16
//	2: a fresh frame of the other size, w1 x h1 (mod 201)
//	3: the same frame again
//
// and op>>2%4 the pan hint: none, the true move (or 0, 0 for frames
// that did not move), the true move plus (8, -8), or plus (3, 5).
func FuzzSequenceMatchesPerFrame(f *testing.F) {
	f.Add(uint8(168), uint8(176), uint8(120), uint8(136), uint8(0x01), int64(1),
		[]byte{0, 40, 60, 20, 30, 200, 1 | 1<<2, 8, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0})
	paradigms := []string{"hog", "fpga", "napprox", "parrot"}
	exts := seqTestExtractors(f)
	dets := map[string]*Detector{}
	for _, name := range paradigms {
		for _, kind := range testScorers {
			det, err := NewDetector(exts[name], newTestScorer(kind, 3, descriptorLen(f, exts[name])), DefaultConfig())
			if err != nil {
				f.Fatal(err)
			}
			dets[name+"/"+kind] = det
		}
	}
	f.Fuzz(func(t *testing.T, w0, h0, w1, h1, knobs uint8, seed int64, ops []byte) {
		withProcs(t, 4)
		paradigm := paradigms[0]
		if knobs&0x80 != 0 {
			paradigm = paradigms[1+uint64(seed)%3]
		}
		det := dets[paradigm+"/"+testScorers[knobs&1]]
		cfg := DefaultConfig()
		cfg.StrideCells = 1 + int(knobs>>1&1)
		cfg.MaxLevels = int(knobs >> 2 & 3)
		cfg.Workers = 1 + int(knobs>>4&3)
		cfg.Threshold = -1e18
		if knobs&0x40 != 0 {
			cfg.Threshold = 0
		}
		det.Config = cfg
		sizes := [2][2]int{{int(w0) % 201, int(h0) % 201}, {int(w1) % 201, int(h1) % 201}}
		rng := rand.New(rand.NewSource(seed))
		cur := 0
		img := fuzzFrame(rng, sizes[0][0], sizes[0][1])
		seq := det.NewSequence()
		const maxFrames = 8
		for i := 0; ; i++ {
			var hx, hy int // pan hint
			if i > 0 {
				op, a, b, c, d, e := ops[0], ops[1], ops[2], ops[3], ops[4], ops[5]
				ops = ops[6:]
				var dx, dy int // true move
				w, h := img.W, img.H
				next := img.Clone()
				switch op % 4 {
				case 0:
					if w > 0 && h > 0 {
						x0, y0 := int(a)%w, int(b)%h
						for y := y0; y < min(y0+1+int(d)%48, h); y++ {
							for x := x0; x < min(x0+1+int(c)%48, w); x++ {
								v := float64(e) / 255
								if e < 128 {
									v = float64(rng.Intn(256)) / 255
								}
								next.Pix[y*w+x] = v
							}
						}
					}
				case 1:
					dx, dy = int(int8(a))%25, int(int8(b))%25
					if c&1 != 0 {
						q := 8
						if c&3 == 3 {
							q = 16
						}
						dx, dy = dx-dx%q, dy-dy%q
					}
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							v := float64(rng.Intn(256)) / 255
							if sx, sy := x+dx, y+dy; sx >= 0 && sx < w && sy >= 0 && sy < h {
								v = img.Pix[sy*w+sx]
							}
							next.Pix[y*w+x] = v
						}
					}
				case 2:
					cur = 1 - cur
					next = fuzzFrame(rng, sizes[cur][0], sizes[cur][1])
				}
				switch op >> 2 % 4 {
				case 1:
					hx, hy = dx, dy
				case 2:
					hx, hy = dx+8, dy-8
				case 3:
					hx, hy = dx+3, dy+5
				}
				img = next
			}
			got := seq.NextPanned(img, hx, hy)
			want := legacyDetectRaw(det, img)
			if !sameDets(seq.raw, want) {
				t.Fatalf("%s frame %d (%dx%d, hint %d,%d, %+v): raw candidates diverge from the per-window oracle (%d vs %d)",
					paradigm, i, img.W, img.H, hx, hy, cfg, len(seq.raw), len(want))
			}
			if kept := NMS(want, cfg.NMSEpsilon); !sameDets(got, kept) {
				t.Fatalf("%s frame %d (%dx%d, hint %d,%d, %+v): detections diverge from NMS of the oracle (%d vs %d)",
					paradigm, i, img.W, img.H, hx, hy, cfg, len(got), len(kept))
			}
			if i+1 >= maxFrames || len(ops) < 6 {
				break
			}
		}
	})
}
