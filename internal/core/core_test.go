package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/parrot"
)

func TestParadigmStrings(t *testing.T) {
	for p, want := range map[Paradigm]string{
		ParadigmFPGA: "fpga-hog", ParadigmNApproxFP: "napprox-fp",
		ParadigmNApprox: "napprox", ParadigmParrot: "parrot",
		ParadigmAbsorbed: "absorbed",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if Paradigm(99).String() == "" {
		t.Error("unknown paradigm should print")
	}
}

func TestNewExtractorParadigms(t *testing.T) {
	if _, err := NewExtractor(ParadigmFPGA, hog.NormL2); err != nil {
		t.Errorf("fpga: %v", err)
	}
	if _, err := NewExtractor(ParadigmFPGA, hog.NormNone); err == nil {
		t.Error("fpga without norm should be rejected")
	}
	if _, err := NewExtractor(ParadigmNApproxFP, hog.NormL2); err != nil {
		t.Error("napprox-fp should build")
	}
	if _, err := NewExtractor(ParadigmNApprox, hog.NormNone); err != nil {
		t.Error("napprox should build")
	}
	if _, err := NewExtractor(ParadigmParrot, hog.NormNone); err == nil {
		t.Error("parrot via NewExtractor should be rejected")
	}
	if _, err := NewExtractor(ParadigmAbsorbed, hog.NormNone); err == nil {
		t.Error("absorbed extractor should be rejected")
	}
	if _, err := NewExtractor(Paradigm(42), hog.NormNone); err == nil {
		t.Error("unknown paradigm should error")
	}
}

func TestDescriptorSet(t *testing.T) {
	e, err := NewExtractor(ParadigmNApprox, hog.NormNone)
	if err != nil {
		t.Fatal(err)
	}
	gen := dataset.NewGenerator(1)
	windows := []*imgproc.Image{gen.Positive(), gen.Negative(), gen.Positive()}
	ds, err := DescriptorSet(e, windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 || len(ds[0]) != 7560 {
		t.Fatalf("descriptor set %d x %d", len(ds), len(ds[0]))
	}
	// The shared grid carries nothing from one window to the next.
	for i, w := range windows {
		d, err := Descriptor(e, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds[i], d) {
			t.Fatalf("window %d: DescriptorSet differs from Descriptor", i)
		}
	}
	if _, err := DescriptorSet(e, []*imgproc.Image{gen.Positive(), imgproc.New(72, 136)}); err == nil {
		t.Error("a window that is not 64x128 should be rejected")
	}
}

func TestTrainSVMPartitionDetects(t *testing.T) {
	e, err := NewExtractor(ParadigmNApproxFP, hog.NormL2)
	if err != nil {
		t.Fatal(err)
	}
	gen := dataset.NewGenerator(21)
	ts := gen.TrainSet(50, 100)
	cfg := DefaultSVMTrainConfig()
	cfg.HardNegativeRounds = 1
	cfg.MiningScenes = 2
	part, err := TrainSVMPartition(ParadigmNApproxFP, e, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := part.Detector(detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scene := dataset.NewGenerator(31).Scene(288, 224, 1, 140, 180)
	if len(scene.Truth) == 0 {
		t.Skip("no person placed")
	}
	dets := det.Detect(scene.Image)
	if len(dets) == 0 {
		t.Fatal("partition detected nothing")
	}
	found := false
	for _, d := range dets[:minInt(3, len(dets))] {
		if d.Box.IoU(scene.Truth[0]) >= 0.3 {
			found = true
		}
	}
	if !found {
		t.Errorf("no top detection near truth %+v: %v", scene.Truth[0], dets[:minInt(3, len(dets))])
	}
}

func TestTrainEednPartition(t *testing.T) {
	e, err := NewExtractor(ParadigmNApprox, hog.NormNone)
	if err != nil {
		t.Fatal(err)
	}
	gen := dataset.NewGenerator(41)
	ts := gen.TrainSet(40, 80)
	cfg := DefaultEednTrainConfig()
	cfg.Train.Epochs = 25
	cfg.Width = 128
	part, err := TrainEednPartition(ParadigmNApprox, e, ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if part.ClassifierCores <= 0 {
		t.Error("classifier core estimate missing")
	}
	// The Eedn head should separate held-out windows above chance.
	val := dataset.NewGenerator(42).TrainSet(30, 30)
	correct := 0
	for _, w := range val.Positives {
		d, err := Descriptor(e, w)
		if err != nil {
			t.Fatal(err)
		}
		if part.Classifier.Score(d) >= 0 {
			correct++
		}
	}
	for _, w := range val.Negatives {
		d, err := Descriptor(e, w)
		if err != nil {
			t.Fatal(err)
		}
		if part.Classifier.Score(d) < 0 {
			correct++
		}
	}
	acc := float64(correct) / 60
	t.Logf("eedn partition val accuracy: %.3f", acc)
	if acc < 0.7 {
		t.Errorf("eedn partition accuracy = %v, want >= 0.7", acc)
	}
}

func TestEednClassifierScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := eedn.NewClassifierNet(4, 8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := &EednClassifier{Net: net, Scale: 64}
	// Must not panic and must clamp scaled inputs.
	_ = c.Score([]float64{0, 64, 128, 32})
	c2 := &EednClassifier{Net: net, Scale: 1}
	_ = c2.Score([]float64{0, 1, 0.5, 0.2})
}

// TestAbsorbedBlindDecisions reproduces Sec. 5.1: with the training
// budget that suffices for the partitioned approaches, the monolithic
// network fails to learn a useful response (blind or near-chance
// decisions).
func TestAbsorbedBlindDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("long monolithic training")
	}
	gen := dataset.NewGenerator(61)
	ts := gen.TrainSet(40, 40)
	val := dataset.NewGenerator(62).TrainSet(25, 25)
	cfg := eedn.DefaultTrainConfig()
	cfg.Epochs = 3 // the paper's point: same budget, no convergence
	cfg.LR = 0.02
	evalWindows := append(append([]*imgproc.Image{}, val.Positives...), val.Negatives...)
	labels := make([]bool, len(evalWindows))
	for i := range val.Positives {
		labels[i] = true
	}
	res, err := TrainAbsorbed(ts, evalWindows, labels, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("absorbed: loss=%.3f positiveRate=%.3f accuracy=%.3f blind=%v",
		res.TrainLoss, res.PositiveRate, res.Accuracy, res.Blind)
	if !res.Blind && res.Accuracy > 0.7 {
		t.Errorf("absorbed unexpectedly converged: %+v", res)
	}
}

func TestTrainAbsorbedEmptySet(t *testing.T) {
	if _, err := TrainAbsorbed(dataset.TrainSet{}, nil, nil, eedn.DefaultTrainConfig(), 1); err == nil {
		t.Error("empty train set should error")
	}
}

func TestWrapParrot(t *testing.T) {
	opt := parrot.DefaultTrainOptions()
	opt.Samples = 400
	opt.Hidden = 64
	opt.Train.Epochs = 5
	ex, _, err := parrot.Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	w := WrapParrot(ex)
	gen := dataset.NewGenerator(3)
	d, err := Descriptor(w, gen.Positive())
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 7560 {
		t.Errorf("parrot descriptor len %d", len(d))
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
