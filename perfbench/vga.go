package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/imgproc"
	"repro/internal/obs"
)

// vgaStream is one camera in a closed loop: distinct scenes with 1-4
// planted pedestrians, each through Detect at two workers. Frames cycle
// NApprox-64+SVM, NApprox-64+SVM, FPGA-HOG+SVM. The two partitions'
// frame times form two separate modes; with a one-to-one mix the
// median would fall in the gap between them, where it is the mean of
// two extreme samples, so the mix is two to one and both the median
// and the 90th percentile land inside a mode.
type vgaStream struct {
	sz     sizes
	gen    *dataset.Generator
	rng    *rand.Rand
	w2, w1 [2]*detect.Detector // index vgaNApprox or vgaFPGA

	// The first checkFrames frames and their timed-phase output.
	kept     []*imgproc.Image
	keptDets [][]detect.Detection
	// The first lamrFrames frames' output and planted truth.
	dets   [][]detect.Detection
	truths [][]dataset.Box
}

const (
	vgaNApprox = 0
	vgaFPGA    = 1
)

// vgaPartition is the partition that scans frame i.
func vgaPartition(i int) int {
	if i%3 == 2 {
		return vgaFPGA
	}
	return vgaNApprox
}

func buildVGAStream(seed int64, sz sizes, layers map[string]float64) (bench, error) {
	t0 := time.Now()
	ts := dataset.NewGenerator(trainSeed).TrainSet(sz.trainPos, sz.trainNeg)
	layers["setup.dataset_s"] = time.Since(t0).Seconds()
	b := &vgaStream{sz: sz, gen: dataset.NewGenerator(seed), rng: rand.New(rand.NewSource(seed))}
	for k, p := range [2]core.Paradigm{vgaNApprox: core.ParadigmNApprox, vgaFPGA: core.ParadigmFPGA} {
		part, err := trainPartition(p, ts, sz, layers)
		if err != nil {
			return nil, err
		}
		ds, err := detectors(part, 2, 1)
		if err != nil {
			return nil, err
		}
		b.w2[k], b.w1[k] = ds[0], ds[1]
	}
	t0 = time.Now()
	warm := dataset.NewGenerator(trainSeed).Scene(sz.frameW, sz.frameH, 1, sz.personMinH, sz.personMaxH)
	for _, d := range b.w2 {
		d.Detect(warm.Image)
	}
	layers["setup.warmup_s"] = time.Since(t0).Seconds()
	return b, nil
}

func (b *vgaStream) timed(d time.Duration, out *outcome) error {
	am := newAllocMeter()
	start := time.Now()
	for i := 0; ; i++ {
		// Whole cycles of three keep the partition mix fixed.
		if i%3 == 0 && i >= b.sz.minFrames && time.Since(start) >= d {
			break
		}
		scene := b.gen.Scene(b.sz.frameW, b.sz.frameH, 1+b.rng.Intn(4), b.sz.personMinH, b.sz.personMaxH)
		if i == 0 {
			out.inputDigest = digestImages(scene.Image)
		}
		out.obsOnWhileTimed = out.obsOnWhileTimed || obs.Enabled()
		am.begin()
		t0 := time.Now()
		dets := b.w2[vgaPartition(i)].Detect(scene.Image)
		el := time.Since(t0)
		am.end()
		out.busy += el
		out.lat = append(out.lat, ms(el))
		if i < b.sz.checkFrames {
			b.kept = append(b.kept, scene.Image)
			b.keptDets = append(b.keptDets, dets)
		}
		if i < b.sz.lamrFrames {
			b.dets = append(b.dets, dets)
			b.truths = append(b.truths, scene.Truth)
		}
	}
	out.attempted = len(out.lat)
	out.allocBytes = am.total
	return nil
}

// check compares the kept frames against Detect at one worker.
func (b *vgaStream) check(out *outcome) error {
	for i, img := range b.kept {
		if !sameDetections(b.w1[vgaPartition(i)].Detect(img), b.keptDets[i]) {
			out.failed++
		}
	}
	for k := range b.w2 {
		out.failed += int(b.w2[k].DescriptorErrors() + b.w1[k].DescriptorErrors())
	}
	return nil
}

// traced replays the kept frames stage by stage; a replay that is not
// bit-identical to Detect counts as a failed frame.
func (b *vgaStream) traced(out *outcome) error {
	var w2 time.Duration
	dets := make([]*detect.Detector, len(b.kept))
	grids := make([]string, len(b.kept))
	for i, img := range b.kept {
		k := vgaPartition(i)
		t0 := time.Now()
		b.w2[k].Detect(img)
		w2 += time.Since(t0)
		dets[i] = b.w1[k]
		grids[i] = [2]string{vgaNApprox: "napprox.grid_ms", vgaFPGA: "hog.grid_ms"}[k]
	}
	mismatches, w1 := replayStats(out.spans, b.kept, dets, grids, out.layers)
	out.failed += mismatches
	out.layers["detect.band_speedup"] = float64(w1) / float64(w2)
	out.layers["detect.lamr"] = lamr(b.dets, b.truths)
	return nil
}
