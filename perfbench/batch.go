package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/imgproc"
	"repro/internal/obs"
)

// batchParrot is the paper's evaluation loop: DetectStream pipelines a
// fixed batch of scenes across two image workers through the
// full-precision Parrot+SVM partition, then Evaluate scores the batch.
type batchParrot struct {
	sz     sizes
	w2, w1 *detect.Detector
	imgs   []*imgproc.Image
	truths [][]dataset.Box

	first   [][]detect.Detection // the first batch's output
	w1Batch time.Duration        // the batch at one worker, timed by check
}

func buildBatchParrot(seed int64, sz sizes, layers map[string]float64) (bench, error) {
	t0 := time.Now()
	ts := dataset.NewGenerator(trainSeed).TrainSet(sz.trainPos, sz.trainNeg)
	b := &batchParrot{sz: sz}
	gen := dataset.NewGenerator(seed)
	for i := 0; i < sz.batch; i++ {
		sc := gen.Scene(sz.batchW, sz.batchH, 1+i%2, sz.personMinH, sz.batchH-16)
		b.imgs = append(b.imgs, sc.Image)
		b.truths = append(b.truths, sc.Truth)
	}
	layers["setup.dataset_s"] = time.Since(t0).Seconds()
	part, err := trainPartition(core.ParadigmParrot, ts, sz, layers)
	if err != nil {
		return nil, err
	}
	ds, err := detectors(part, 2, 1)
	if err != nil {
		return nil, err
	}
	b.w2, b.w1 = ds[0], ds[1]
	t0 = time.Now()
	b.w2.DetectAll(b.imgs[:2])
	layers["setup.warmup_s"] = time.Since(t0).Seconds()
	return b, nil
}

// runBatch pipelines the batch through det and evaluates it, returning
// per-image detections and per-image latency from src to sink.
func (b *batchParrot) runBatch(det *detect.Detector) ([][]detect.Detection, []time.Duration) {
	n := len(b.imgs)
	dets := make([][]detect.Detection, n)
	starts := make([]time.Time, n)
	lat := make([]time.Duration, n)
	// DetectStream calls src(i) and sink(i) on one worker goroutine, once
	// per index, and returns after every worker has finished, so the
	// per-index writes need no lock.
	det.DetectStream(n,
		func(i int) *imgproc.Image {
			starts[i] = time.Now()
			return b.imgs[i]
		},
		func(i int, d []detect.Detection) {
			lat[i] = time.Since(starts[i])
			dets[i] = d
		})
	detect.Evaluate(dets, b.truths, 0.5)
	return dets, lat
}

func (b *batchParrot) timed(d time.Duration, out *outcome) error {
	am := newAllocMeter()
	out.inputDigest = digestImages(b.imgs...)
	start := time.Now()
	for k := 0; k < b.sz.minBatches || time.Since(start) < d; k++ {
		out.obsOnWhileTimed = out.obsOnWhileTimed || obs.Enabled()
		am.begin()
		t0 := time.Now()
		dets, lat := b.runBatch(b.w2)
		el := time.Since(t0)
		am.end()
		out.busy += el
		for _, l := range lat {
			out.lat = append(out.lat, ms(l))
		}
		if k == 0 {
			b.first = dets
			continue
		}
		for i := range dets {
			if !sameDetections(dets[i], b.first[i]) {
				out.failed++
			}
		}
	}
	out.attempted = len(out.lat)
	out.allocBytes = am.total
	return nil
}

// check compares the first batch against DetectStream at one worker,
// which scans the images one after another, and times that call.
func (b *batchParrot) check(out *outcome) error {
	t0 := time.Now()
	want, _ := b.runBatch(b.w1)
	b.w1Batch = time.Since(t0)
	for i := range want {
		if !sameDetections(want[i], b.first[i]) {
			out.failed++
		}
	}
	out.failed += int(b.w2.DescriptorErrors() + b.w1.DescriptorErrors())
	return nil
}

func (b *batchParrot) traced(out *outcome) error {
	// Right after check's one-worker batch, so both see the same host.
	t0 := time.Now()
	b.runBatch(b.w2)
	out.layers["detect.stream_speedup"] = float64(b.w1Batch) / float64(time.Since(t0))

	dets := make([]*detect.Detector, len(b.imgs))
	grids := make([]string, len(b.imgs))
	for i := range b.imgs {
		dets[i], grids[i] = b.w1, "parrot.grid_ms"
	}
	mismatches, _ := replayStats(out.spans, b.imgs, dets, grids, out.layers)
	out.failed += mismatches
	out.layers["parrot.cell_us"] = out.layers["parrot.grid_ms"] * 1e3 / out.layers["extract.cells"]
	var evalMS []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		detect.Evaluate(b.first, b.truths, 0.5)
		evalMS = append(evalMS, ms(time.Since(t0)))
	}
	out.layers["detect.evaluate_ms"] = median(evalMS)
	out.layers["detect.lamr"] = lamr(b.first, b.truths)
	return nil
}
