package detect

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/svm"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.CellSize = 0 },
		func(c *Config) { c.ScaleFactor = 1 },
		func(c *Config) { c.StrideCells = 0 },
		func(c *Config) { c.NMSEpsilon = 1.5 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestNewDetectorNilArgs(t *testing.T) {
	if _, err := NewDetector(nil, nil, DefaultConfig()); err == nil {
		t.Error("nil args should error")
	}
}

func TestNMSKeepsStrongestPerCluster(t *testing.T) {
	dets := []Detection{
		{Box: dataset.Box{X: 0, Y: 0, W: 10, H: 10}, Score: 1},
		{Box: dataset.Box{X: 1, Y: 1, W: 10, H: 10}, Score: 2},     // overlaps, stronger
		{Box: dataset.Box{X: 50, Y: 50, W: 10, H: 10}, Score: 0.5}, // separate
	}
	kept := NMS(dets, 0.2)
	if len(kept) != 2 {
		t.Fatalf("kept %d, want 2: %v", len(kept), kept)
	}
	if kept[0].Score != 2 || kept[1].Score != 0.5 {
		t.Errorf("kept wrong boxes: %v", kept)
	}
}

func TestNMSEpsilonOneKeepsAll(t *testing.T) {
	dets := []Detection{
		{Box: dataset.Box{X: 0, Y: 0, W: 10, H: 10}, Score: 1},
		{Box: dataset.Box{X: 0, Y: 0, W: 10, H: 10}, Score: 2},
	}
	if kept := NMS(dets, 1.0); len(kept) != 2 {
		t.Errorf("eps=1 should keep all (IoU never > 1): %v", kept)
	}
}

// trainedPipeline returns a HoG+SVM detector trained on synthetic
// windows.
func trainedPipeline(t testing.TB) *Detector {
	t.Helper()
	gen := dataset.NewGenerator(4)
	ext, err := hog.NewExtractor(hog.Reference())
	if err != nil {
		t.Fatal(err)
	}
	ts := gen.TrainSet(60, 120)
	descriptors := func(windows []*imgproc.Image) [][]float64 {
		var out [][]float64
		var g hog.Grid
		for _, w := range windows {
			ext.GridInto(&g, w)
			d, err := ext.DescriptorInto(nil, &g, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		return out
	}
	pos, neg := descriptors(ts.Positives), descriptors(ts.Negatives)
	model, err := svm.Train(pos, neg, svm.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	det, err := NewDetector(ext, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestDetectFindsPlantedPerson(t *testing.T) {
	det := trainedPipeline(t)
	gen := dataset.NewGenerator(77)
	scene := gen.Scene(320, 256, 1, 140, 180)
	if len(scene.Truth) != 1 {
		t.Skip("scene placement failed")
	}
	dets := det.Detect(scene.Image)
	if len(dets) == 0 {
		t.Fatal("no detections on a scene with a person")
	}
	// The best-scoring detection should overlap the truth reasonably.
	best := dets[0]
	if iou := best.Box.IoU(scene.Truth[0]); iou < 0.3 {
		t.Errorf("best detection IoU = %v (box %+v, truth %+v)",
			iou, best.Box, scene.Truth[0])
	}
}

func TestDetectRawRespectsThreshold(t *testing.T) {
	det := trainedPipeline(t)
	gen := dataset.NewGenerator(78)
	img := gen.NegativeImage(200, 200)
	det.Config.Threshold = math.Inf(1)
	if got := det.DetectRaw(img); len(got) != 0 {
		t.Errorf("infinite threshold produced %d detections", len(got))
	}
}

func TestDetectSmallImageNoPanic(t *testing.T) {
	det := trainedPipeline(t)
	tiny := imgproc.New(32, 32) // smaller than one window
	if got := det.Detect(tiny); len(got) != 0 {
		t.Errorf("window larger than image should yield nothing: %v", got)
	}
}

func TestEvaluatePerfectDetector(t *testing.T) {
	truths := [][]dataset.Box{
		{{X: 10, Y: 10, W: 50, H: 100}},
		{{X: 20, Y: 20, W: 50, H: 100}},
	}
	dets := [][]Detection{
		{{Box: truths[0][0], Score: 5}},
		{{Box: truths[1][0], Score: 4}},
	}
	c := Evaluate(dets, truths, 0.5)
	if len(c.Points) == 0 {
		t.Fatal("empty curve")
	}
	last := c.Points[len(c.Points)-1]
	if last.Y != 0 {
		t.Errorf("perfect detector misses: %v", c.Points)
	}
	if last.X != 0 {
		t.Errorf("perfect detector has FPPI %v", last.X)
	}
}

func TestEvaluateAllFalsePositives(t *testing.T) {
	truths := [][]dataset.Box{{{X: 0, Y: 0, W: 10, H: 10}}}
	dets := [][]Detection{{
		{Box: dataset.Box{X: 100, Y: 100, W: 10, H: 10}, Score: 1},
		{Box: dataset.Box{X: 200, Y: 100, W: 10, H: 10}, Score: 2},
	}}
	c := Evaluate(dets, truths, 0.5)
	last := c.Points[len(c.Points)-1]
	if last.Y != 1 {
		t.Errorf("miss rate should stay 1: %v", c.Points)
	}
	if last.X != 2 {
		t.Errorf("FPPI should be 2: %v", c.Points)
	}
}

func TestEvaluateDoubleDetectionCountsOneTP(t *testing.T) {
	gt := dataset.Box{X: 0, Y: 0, W: 50, H: 100}
	truths := [][]dataset.Box{{gt}}
	dets := [][]Detection{{
		{Box: gt, Score: 5},
		{Box: dataset.Box{X: 2, Y: 2, W: 50, H: 100}, Score: 4}, // second match -> FP
	}}
	c := Evaluate(dets, truths, 0.5)
	last := c.Points[len(c.Points)-1]
	if last.Y != 0 {
		t.Errorf("first detection should match: %v", c.Points)
	}
	if last.X != 1 {
		t.Errorf("duplicate should be a false positive: %v", c.Points)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	c := Evaluate(nil, nil, 0.5)
	if len(c.Points) != 0 {
		t.Errorf("empty eval should be empty curve: %v", c.Points)
	}
}

func TestEvaluateCurveMonotoneAxes(t *testing.T) {
	// Miss rate must be non-increasing as FPPI grows (more permissive
	// thresholds).
	det := trainedPipeline(t)
	gen := dataset.NewGenerator(55)
	var dets [][]Detection
	var truths [][]dataset.Box
	for i := 0; i < 4; i++ {
		scene := gen.Scene(256, 256, 1, 130, 200)
		det.Config.Threshold = -math.MaxFloat64
		dd := det.Detect(scene.Image)
		dets = append(dets, dd)
		truths = append(truths, scene.Truth)
	}
	c := Evaluate(dets, truths, 0.5)
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].X < c.Points[i-1].X {
			t.Fatal("curve not sorted by FPPI")
		}
	}
	if len(c.Points) > 0 {
		if lamr := LogAvgMissRate(c); math.IsNaN(lamr) && len(c.Points) > 1 {
			t.Error("LAMR NaN on non-empty curve")
		}
	}
}

func TestTrainedDetectorBeatsRandomScores(t *testing.T) {
	// The trained pipeline should produce a lower log-average miss
	// rate than a constant scorer (which detects nothing useful).
	det := trainedPipeline(t)
	gen := dataset.NewGenerator(91)
	var dets [][]Detection
	var truths [][]dataset.Box
	for i := 0; i < 5; i++ {
		scene := gen.Scene(288, 256, 1, 130, 190)
		dets = append(dets, det.Detect(scene.Image))
		truths = append(truths, scene.Truth)
	}
	c := Evaluate(dets, truths, 0.5)
	nGT := 0
	for _, tr := range truths {
		nGT += len(tr)
	}
	if nGT == 0 {
		t.Skip("no ground truth placed")
	}
	if len(c.Points) == 0 {
		t.Fatal("no detections at all")
	}
	// At the most permissive threshold some truths must be found.
	last := c.Points[len(c.Points)-1]
	if last.Y >= 1 {
		t.Errorf("detector found nothing: %v", last)
	}
}

func BenchmarkDetectScene(b *testing.B) {
	det := trainedPipeline(b)
	gen := dataset.NewGenerator(10)
	scene := gen.Scene(320, 240, 2, 130, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = det.Detect(scene.Image)
	}
}

func BenchmarkNMS1000(b *testing.B) {
	gen := dataset.NewGenerator(2)
	var dets []Detection
	for i := 0; i < 1000; i++ {
		dets = append(dets, Detection{
			Box:   dataset.Box{X: i % 100 * 3, Y: i / 100 * 7, W: 64, H: 128},
			Score: float64(i%37) / 37,
		})
	}
	_ = gen
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NMS(dets, 0.2)
	}
}
