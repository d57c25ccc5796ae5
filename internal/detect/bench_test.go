package detect

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/imgproc"
	"repro/internal/obs"
)

// TestMain wires the detect benchmarks to the telemetry exporter: when
// BENCH_DETECT_OUT names a file, telemetry is enabled for the run and
// the final registry snapshot — detect.workers, detect.level_ms,
// detect.worker_utilization, windows/s, NMS counters — is written
// there. `make bench-detect` sets it to BENCH_detect.json.
func TestMain(m *testing.M) {
	out := os.Getenv("BENCH_DETECT_OUT")
	if out != "" {
		obs.Enable()
	}
	code := m.Run()
	if out != "" {
		// Baselines are a metric comparison surface for pcnn-bench;
		// the per-image span trees the instrumented scan now records
		// would bloat them without adding comparable numbers.
		obs.DropSpans()
		if err := obs.WriteSnapshotFile(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Fprintf(os.Stderr, "telemetry snapshot written to %s\n", out)
		}
	}
	os.Exit(code)
}

// benchWorkerCounts returns the sweep {1, 4, NumCPU}, deduplicated and
// sorted ascending.
func benchWorkerCounts() []int {
	counts := []int{1, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	var out []int
	for _, c := range counts {
		if c > 0 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// raiseProcs lifts GOMAXPROCS to at least n for the duration of a
// sub-benchmark so the worker pool is actually exercised; restore via
// the returned func. Speedups only materialize with real cores — on a
// single-CPU machine the parallel variants measure scheduling overhead.
func raiseProcs(n int) func() {
	prev := runtime.GOMAXPROCS(0)
	if prev >= n {
		return func() {}
	}
	runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}

// BenchmarkDetectImage measures the full single-image pipeline (scan +
// NMS) at several level worker counts.
func BenchmarkDetectImage(b *testing.B) {
	det := trainedPipeline(b)
	scene := dataset.NewGenerator(10).Scene(320, 240, 2, 130, 200)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			defer raiseProcs(w)()
			det.Config.Workers = w
			det.Detect(scene.Image) // warm scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = det.Detect(scene.Image)
			}
		})
	}
}

// BenchmarkDetectAll measures the multi-image pipeline: a batch of
// scenes fanned across image workers.
func BenchmarkDetectAll(b *testing.B) {
	det := trainedPipeline(b)
	gen := dataset.NewGenerator(11)
	var imgs []*imgproc.Image
	for i := 0; i < 4; i++ {
		imgs = append(imgs, gen.Scene(288, 224, 1, 130, 200).Image)
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			defer raiseProcs(w)()
			det.Config.Workers = w
			det.DetectAll(imgs) // warm scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = det.DetectAll(imgs)
			}
		})
	}
}

// seqBenchFrames renders the three temporal workload mixes: fully
// static, ~5% of pixels in motion (a patch sliding over a static
// scene, the surveillance steady state), and full-frame motion (a
// global lighting ramp, the reuse worst case).
func seqBenchFrames(b *testing.B, mix string) []dataset.Frame {
	b.Helper()
	const w, h, n = 320, 240, 12
	gen := dataset.NewGenerator(12)
	switch mix {
	case "static", "fullmotion":
		scenario := "static"
		if mix == "fullmotion" {
			scenario = "lightramp"
		}
		frames, err := gen.FrameSequence(scenario, w, h, n)
		if err != nil {
			b.Fatal(err)
		}
		return frames
	case "motion5":
		base := gen.NegativeImage(w, h)
		frames := make([]dataset.Frame, n)
		for i := range frames {
			img := base.Clone()
			// Triangle-wave patch position: every frame-to-frame step,
			// including the benchmark-loop wrap from the last frame back
			// to the first, moves the patch by the same 12 px, so a
			// 1-iteration bench-gate run measures a representative frame.
			tri := i
			if n-i < tri {
				tri = n - i
			}
			x0, y0 := 40+12*tri, 96
			for y := y0; y < y0+48; y++ {
				for x := x0; x < x0+48; x++ {
					img.Pix[y*w+x] = float64((x+y+i)%7) / 7
				}
			}
			frames[i] = dataset.Frame{Image: img}
		}
		return frames
	}
	b.Fatalf("unknown mix %q", mix)
	return nil
}

// BenchmarkDetectSequence measures temporal frames/s against the
// per-frame baseline on each workload mix. The acceptance target is
// sequence >= 2x perframe on motion5; fullmotion bounds the overhead
// of the diff pass when nothing is reusable. With BENCH_DETECT_OUT
// set, per-mix detect.seq.<mix>.frames_per_sec gauges reach the
// snapshot (informational plus auto-gated higher-is-better).
func BenchmarkDetectSequence(b *testing.B) {
	det := trainedPipeline(b)
	det.Config.Workers = 1
	for _, mix := range []string{"static", "motion5", "fullmotion"} {
		frames := seqBenchFrames(b, mix)
		b.Run(mix+"/sequence", func(b *testing.B) {
			seq := det.NewSequence()
			for _, f := range frames { // warm caches through one full cycle
				seq.NextPanned(f.Image, f.PanX, f.PanY)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := frames[i%len(frames)]
				_ = seq.NextPanned(f.Image, f.PanX, f.PanY)
			}
			b.StopTimer()
			if os.Getenv("BENCH_DETECT_OUT") != "" && b.Elapsed() > 0 {
				fps := float64(b.N) / b.Elapsed().Seconds()
				obs.GaugeM("detect.seq." + mix + ".frames_per_sec").Set(fps)
			}
		})
		b.Run(mix+"/perframe", func(b *testing.B) {
			det.Detect(frames[0].Image) // warm scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = det.Detect(frames[i%len(frames)].Image)
			}
		})
	}
}

// BenchmarkDetectScanInner isolates the steady-state inner window
// loop: one full rescan of every window row of a warm level grid
// through the row scorer (Sequence.scanLevel), into warm scratch. This
// is the loop the 0 allocs/op acceptance criterion pins (see also
// TestDetectSteadyStateAllocs).
func BenchmarkDetectScanInner(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Threshold = -1e18
	det := testDetector(b, cfg)
	img := dataset.NewGenerator(9).NegativeImage(160, 160)
	seq, lv := rescanLevel(b, det, img)
	sc := &seq.ws[0]
	seq.scanLevel(sc, lv) // warm both cache buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.scanLevel(sc, lv)
	}
}
