package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/imgproc"
	"repro/internal/obs"
)

// seqScenarios are video-seq's segments, concatenated in this order.
// Together they span temporal reuse from total (static) to none
// (jitter, the full-recompute fallback).
var seqScenarios = []string{"static", "walkers", "crowd", "pan", "jitter"}

// videoSeq feeds one detect.Sequence consecutive frames through
// NextPanned: NApprox-64+SVM at two workers, scenario segments
// concatenated into cycles.
type videoSeq struct {
	sz   sizes
	seed int64
	w2   *detect.Detector

	// Checked frames: the second and last frame of every segment of
	// the first cycle, with their Sequence output and time.
	kept     []*imgproc.Image
	keptDets [][]detect.Detection
	keptMS   []float64
	// The first cycle's output and planted truth.
	dets   [][]detect.Detection
	truths [][]dataset.Box
	byScn  map[string][]float64
}

func buildVideoSeq(seed int64, sz sizes, layers map[string]float64) (bench, error) {
	t0 := time.Now()
	ts := dataset.NewGenerator(trainSeed).TrainSet(sz.trainPos, sz.trainNeg)
	layers["setup.dataset_s"] = time.Since(t0).Seconds()
	part, err := trainPartition(core.ParadigmNApprox, ts, sz, layers)
	if err != nil {
		return nil, err
	}
	ds, err := detectors(part, 2)
	if err != nil {
		return nil, err
	}
	b := &videoSeq{sz: sz, seed: seed, w2: ds[0], byScn: map[string][]float64{}}
	t0 = time.Now()
	warm, err := dataset.NewGenerator(trainSeed).FrameSequence("walkers", sz.frameW, sz.frameH, 2)
	if err != nil {
		return nil, err
	}
	b.w2.DetectSequence(warm)
	layers["setup.warmup_s"] = time.Since(t0).Seconds()
	return b, nil
}

// segment renders segment k of the given cycle; each (seed, cycle,
// segment) gets its own world, so no two cycles repeat.
func (b *videoSeq) segment(cycle, k int) ([]dataset.Frame, error) {
	gen := dataset.NewGenerator(b.seed*1000 + int64(cycle*len(seqScenarios)+k))
	return gen.FrameSequence(seqScenarios[k], b.sz.frameW, b.sz.frameH, b.sz.segFrames)
}

func (b *videoSeq) timed(d time.Duration, out *outcome) error {
	am := newAllocMeter()
	seq := b.w2.NewSequence()
	start := time.Now()
	// Whole cycles keep the scenario mix fixed.
	for cycle := 0; cycle < b.sz.minCycles || time.Since(start) < d; cycle++ {
		for k, scn := range seqScenarios {
			// Free the previous segment's frames before rendering the
			// next, so the generator's garbage does not set the peak
			// resident set.
			runtime.GC()
			frames, err := b.segment(cycle, k)
			if err != nil {
				return err
			}
			if cycle == 0 && k == 1 {
				out.inputDigest = digestImages(frames[0].Image)
			}
			for i, f := range frames {
				out.obsOnWhileTimed = out.obsOnWhileTimed || obs.Enabled()
				am.begin()
				t0 := time.Now()
				dets := seq.NextPanned(f.Image, f.PanX, f.PanY)
				el := time.Since(t0)
				am.end()
				out.busy += el
				out.lat = append(out.lat, ms(el))
				b.byScn[scn] = append(b.byScn[scn], ms(el))
				if cycle > 0 {
					continue
				}
				cp := append([]detect.Detection(nil), dets...)
				b.dets = append(b.dets, cp)
				b.truths = append(b.truths, f.Truth)
				if i == 1 || i == len(frames)-1 {
					b.kept = append(b.kept, f.Image)
					b.keptDets = append(b.keptDets, cp)
					b.keptMS = append(b.keptMS, ms(el))
				}
			}
		}
	}
	out.attempted = len(out.lat)
	out.allocBytes = am.total
	return nil
}

// check compares the kept frames against a per-frame Detect; the same
// calls time the per-frame path for detect.seq.speedup.
func (b *videoSeq) check(out *outcome) error {
	var detMS []float64
	for i, img := range b.kept {
		t0 := time.Now()
		want := b.w2.Detect(img)
		detMS = append(detMS, ms(time.Since(t0)))
		if !sameDetections(want, b.keptDets[i]) {
			out.failed++
		}
	}
	out.failed += int(b.w2.DescriptorErrors())
	out.layers["detect.seq.speedup"] = mean(detMS) / mean(b.keptMS)
	return nil
}

// traced replays the first cycle through a fresh Sequence with the
// detector's own telemetry on, to read the reuse counters it
// publishes, and records one span per frame.
func (b *videoSeq) traced(out *outcome) error {
	for _, scn := range seqScenarios {
		out.layers["detect.seq.frame_ms."+scn] = median(b.byScn[scn])
	}
	out.layers["detect.lamr"] = lamr(b.dets, b.truths)

	reg := obs.Default()
	reg.Reset()
	obs.Enable()
	defer obs.Disable()
	seq := b.w2.NewSequence()
	n := 0
	for k, scn := range seqScenarios {
		frames, err := b.segment(0, k)
		if err != nil {
			return err
		}
		for _, f := range frames {
			t0 := time.Now()
			seq.NextPanned(f.Image, f.PanX, f.PanY)
			out.spans.add("Sequence.NextPanned["+scn+"]", 0, n, t0, time.Since(t0), 1)
			n++
		}
	}
	reuse := reg.BucketHistogram("detect.reuse_ratio", obs.RatioBuckets)
	if reuse.Count() != uint64(n) {
		return fmt.Errorf("detect.reuse_ratio has %d samples for %d frames", reuse.Count(), n)
	}
	out.layers["detect.seq.reuse_ratio"] = reuse.Sum() / float64(n)
	cells := float64(reg.Counter("detect.cells_recomputed").Value()) / float64(n)
	out.layers["detect.seq.cells_recomputed"] = cells
	out.layers["extract.cells"] = cells
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
