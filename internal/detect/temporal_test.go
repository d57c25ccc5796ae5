package detect

import (
	"math/rand"
	"reflect"
	"testing"

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
func descriptorLen(t *testing.T, ext Extractor) int {
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
// scorer kind.
func TestSequenceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode makes sync.Pool drop puts; alloc counts are meaningless")
	}
	cfg := DefaultConfig()
	cfg.Threshold = -1e18 // every window carries a detection through the cache
	img := dataset.NewGenerator(9).NegativeImage(160, 160)
	for _, kind := range testScorers {
		det := scoredDetector(t, cfg, kind)
		seq := det.NewSequence()
		for i := 0; i < 3; i++ {
			seq.Next(img)
		}
		if allocs := testing.AllocsPerRun(10, func() { seq.Next(img) }); allocs != 0 {
			t.Fatalf("%s: steady-state frame loop allocates %v times per frame, want 0", kind, allocs)
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
