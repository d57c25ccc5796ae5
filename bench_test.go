// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md section 5), plus ablation benches for the
// design choices called out in DESIGN.md section 6. Quality metrics
// (log-average miss rate, accuracy, correlation, watts) are attached
// to each benchmark via ReportMetric so a single
//
//	go test -bench=. -benchmem
//
// run regenerates the entire evaluation.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eedn"
	"repro/internal/experiments"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/napprox"
	"repro/internal/parrot"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/svm"
	"repro/internal/truenorth"
)

// benchConfig is a reduced experiment configuration so the whole
// harness completes in minutes; cmd/pcnn-eval -full runs the
// paper-protocol sizes.
func benchConfig() experiments.Config {
	c := experiments.Small()
	c.TrainPos, c.TrainNeg = 25, 50
	c.Scenes, c.EmptyScenes = 2, 1
	c.SceneW, c.SceneH = 224, 192
	c.ParrotSamples = 1500
	c.ParrotHidden = 128
	c.ParrotEpochs = 20
	c.ParrotWindow = 0
	c.Eedn.Train.Epochs = 20
	c.Eedn.Width = 96
	c.Eedn.HiddenLayers = 1
	c.HardNegRounds = 0
	return c
}

// --- Table 1: HoG component remapping ---------------------------------

// BenchmarkTable1_GradientPatternMatch measures the pattern-matching
// gradient stage (the four +-(-1 0 1) filters) on one cell.
func BenchmarkTable1_GradientPatternMatch(b *testing.B) {
	cell := imgproc.New(10, 10)
	for i := range cell.Pix {
		cell.Pix[i] = float64(i%7) / 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = imgproc.ComputeGradient(cell)
	}
}

// BenchmarkTable1_ComparisonAngle measures the argmax-projection angle
// computation (comparison primitive) for a full cell.
func BenchmarkTable1_ComparisonAngle(b *testing.B) {
	e, err := napprox.New(napprox.TrueNorthConfig(), hog.NormNone)
	if err != nil {
		b.Fatal(err)
	}
	cell := imgproc.New(10, 10)
	for i := range cell.Pix {
		cell.Pix[i] = float64(i%11) / 11
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e.CellHistogram(cell)
	}
}

// BenchmarkTable1_ConventionalHistogram measures the conventional
// magnitude-voting histogram for the same cell, for comparison.
func BenchmarkTable1_ConventionalHistogram(b *testing.B) {
	e, err := hog.NewExtractor(hog.Reference())
	if err != nil {
		b.Fatal(err)
	}
	cell := imgproc.New(10, 10)
	for i := range cell.Pix {
		cell.Pix[i] = float64(i%11) / 11
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e.CellHistogram(cell)
	}
}

// --- Fig. 4: SVM-classifier curves -------------------------------------

// BenchmarkFig4_SVMCurves regenerates the Fig. 4 comparison (FPGA-HoG
// vs NApprox(fp) vs NApprox 64-spike, SVM heads) and reports each
// curve's log-average miss rate.
func BenchmarkFig4_SVMCurves(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, c := range curves {
				b.ReportMetric(c.LAMR, []string{"lamr-fpga", "lamr-napproxfp", "lamr-napprox64"}[j])
			}
		}
	}
}

// --- Fig. 5: Eedn-classifier curves ------------------------------------

// BenchmarkFig5_EednCurves regenerates the Fig. 5 comparison (NApprox
// vs Parrot with Eedn classifiers, block norm elided).
func BenchmarkFig5_EednCurves(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(curves[0].LAMR, "lamr-napprox")
			b.ReportMetric(curves[1].LAMR, "lamr-parrot")
		}
	}
}

// --- Fig. 6: spike precision sweep --------------------------------------

// BenchmarkFig6_PrecisionSweep regenerates the parrot precision study
// and reports the accuracy at the precision extremes.
func BenchmarkFig6_PrecisionSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(points[0].Accuracy, "acc-32spike")
			b.ReportMetric(points[len(points)-1].Accuracy, "acc-1spike")
		}
	}
}

// --- Table 2: power -------------------------------------------------------

// BenchmarkTable2_Power regenerates the power table and reports the
// headline watts.
func BenchmarkTable2_Power(b *testing.B) {
	var rows []power.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].Watts, "napprox-W")
	b.ReportMetric(rows[3].Watts, "parrot32-W")
	b.ReportMetric(rows[5].Watts*1000, "parrot1-mW")
}

// --- Sec. 3.1: hardware/software validation ------------------------------

// BenchmarkHWValidation_Correlation runs the NApprox corelet on the
// simulator against the software model and reports the correlation.
func BenchmarkHWValidation_Correlation(b *testing.B) {
	var corr float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.HWValidation(60, 42)
		if err != nil {
			b.Fatal(err)
		}
		corr = res.Correlation
	}
	b.ReportMetric(corr, "correlation")
}

// --- Sec. 5.1: absorbed study ---------------------------------------------

// BenchmarkAbsorbed_Monolithic trains the monolithic network under the
// partitioned approaches' budget and reports its evaluation accuracy
// (expected near chance — the paper's blind-decision observation).
func BenchmarkAbsorbed_Monolithic(b *testing.B) {
	cfg := benchConfig()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Absorbed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(acc, "accuracy")
}

// --- Sec. 5.2: throughput --------------------------------------------------

// BenchmarkThroughput_NApproxModule measures simulated wall-clock per
// cell through the NApprox corelet and reports the modeled hardware
// throughput (one cell per 64-tick window = 15.6 cells/s).
func BenchmarkThroughput_NApproxModule(b *testing.B) {
	mod, err := napprox.BuildCellModule(napprox.TrueNorthConfig())
	if err != nil {
		b.Fatal(err)
	}
	sim, err := truenorth.NewSimulator(mod.Model, 1)
	if err != nil {
		b.Fatal(err)
	}
	cell := imgproc.New(10, 10)
	for i := range cell.Pix {
		cell.Pix[i] = float64(i%13) / 13
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mod.Extract(sim, cell); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(power.ModuleThroughput(64), "hw-cells/s")
	b.ReportMetric(float64(mod.Cores()), "cores")
}

// BenchmarkThroughput_ParrotCell measures the parrot per-cell cost at
// 32-spike coding and reports the modeled hardware throughput.
func BenchmarkThroughput_ParrotCell(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := eedn.NewParrotNet(parrot.NBins, 128, rng)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := parrot.NewExtractor(net, 32, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	cell := imgproc.New(10, 10)
	for i := range cell.Pix {
		cell.Pix[i] = float64(i%13) / 13
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ex.CellHistogram(cell)
	}
	b.ReportMetric(power.ModuleThroughput(32), "hw-cells/s")
}

// BenchmarkEnergyPerCell measures simulator-derived dynamic energy per
// NApprox cell against the static power model (extension experiment).
func BenchmarkEnergyPerCell(b *testing.B) {
	var res *experiments.EnergyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.EnergyStudy(8, 5)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.StaticJoulesPerCell*1e6, "static-uJ/cell")
	b.ReportMetric(res.DynamicJoulesPerCell*1e6, "dynamic-uJ/cell")
}

// --- Ablations (DESIGN.md section 6) ---------------------------------------

// ablationAccuracy trains an SVM head on the given extractor and
// reports held-out window accuracy (the fast feature-quality proxy).
func ablationAccuracy(b *testing.B, e core.Extractor) {
	b.Helper()
	cfg := benchConfig()
	var acc float64
	for i := 0; i < b.N; i++ {
		a, err := experiments.SVMAccuracy(e, cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc = a
	}
	b.ReportMetric(acc, "accuracy")
}

// BenchmarkAblation_Voting9BinMagnitude uses the conventional 9-bin
// magnitude-weighted voting (the FPGA/Dalal-Triggs convention).
func BenchmarkAblation_Voting9BinMagnitude(b *testing.B) {
	e, err := core.NewExtractor(core.ParadigmFPGA, hog.NormL2)
	if err != nil {
		b.Fatal(err)
	}
	ablationAccuracy(b, e)
}

// BenchmarkAblation_Voting18BinCount uses the NApprox 18-bin count
// voting.
func BenchmarkAblation_Voting18BinCount(b *testing.B) {
	e, err := core.NewExtractor(core.ParadigmNApproxFP, hog.NormL2)
	if err != nil {
		b.Fatal(err)
	}
	ablationAccuracy(b, e)
}

// BenchmarkAblation_BlockNormOff drops L2 block normalization (the
// TrueNorth configuration of Sec. 5).
func BenchmarkAblation_BlockNormOff(b *testing.B) {
	e, err := core.NewExtractor(core.ParadigmNApproxFP, hog.NormNone)
	if err != nil {
		b.Fatal(err)
	}
	ablationAccuracy(b, e)
}

// BenchmarkAblation_NormL1Sqrt swaps the block normalization scheme
// (Dalal-Triggs evaluated L1, L1-sqrt, L2 and L2-hys).
func BenchmarkAblation_NormL1Sqrt(b *testing.B) {
	cfg := hog.Reference()
	cfg.Norm = hog.NormL1Sqrt
	ext, err := hog.NewExtractor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ablationAccuracy(b, hogAdapter{ext})
}

// BenchmarkAblation_NormL2Hys uses the clipped-renormalized variant.
func BenchmarkAblation_NormL2Hys(b *testing.B) {
	cfg := hog.Reference()
	cfg.Norm = hog.NormL2Hys
	ext, err := hog.NewExtractor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ablationAccuracy(b, hogAdapter{ext})
}

// BenchmarkAblation_SpatialInterp enables the full Dalal-Triggs
// bilinear spatial voting (the aliasing mitigation of the paper's
// footnote 1 that the approximations elide).
func BenchmarkAblation_SpatialInterp(b *testing.B) {
	cfg := hog.Reference()
	cfg.SpatialInterp = true
	ext, err := hog.NewExtractor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ablationAccuracy(b, hogAdapter{ext})
}

// hogAdapter lifts a plain hog.Extractor to the core.Extractor
// interface for ablation benches.
type hogAdapter struct{ *hog.Extractor }

// BenchmarkAblation_TrinaryVsWide compares Eedn classifier width under
// trinary constraints: a narrow head versus the default, reporting
// held-out accuracy of the narrow variant.
func BenchmarkAblation_TrinaryNarrowHead(b *testing.B) {
	cfg := benchConfig()
	e, err := core.NewExtractor(core.ParadigmNApprox, hog.NormNone)
	if err != nil {
		b.Fatal(err)
	}
	gen := dataset.NewGenerator(cfg.Seed)
	ts := gen.TrainSet(cfg.TrainPos, cfg.TrainNeg)
	ecfg := core.DefaultEednTrainConfig()
	ecfg.Width = 64
	ecfg.Train.Epochs = 20
	var acc float64
	for i := 0; i < b.N; i++ {
		part, err := core.TrainEednPartition(core.ParadigmNApprox, e, ts, ecfg)
		if err != nil {
			b.Fatal(err)
		}
		val := dataset.NewGenerator(cfg.Seed+555).TrainSet(20, 20)
		correct := 0
		for _, w := range val.Positives {
			d, err := core.Descriptor(e, w)
			if err != nil {
				b.Fatal(err)
			}
			if part.Classifier.Score(d) >= 0 {
				correct++
			}
		}
		for _, w := range val.Negatives {
			d, err := core.Descriptor(e, w)
			if err != nil {
				b.Fatal(err)
			}
			if part.Classifier.Score(d) < 0 {
				correct++
			}
		}
		acc = float64(correct) / 40
	}
	b.ReportMetric(acc, "accuracy")
}

// BenchmarkAblation_HardNegMining compares SVM training with the
// mining loop enabled, reporting mined-model accuracy.
func BenchmarkAblation_HardNegMining(b *testing.B) {
	cfg := benchConfig()
	e, err := core.NewExtractor(core.ParadigmNApproxFP, hog.NormL2)
	if err != nil {
		b.Fatal(err)
	}
	ts := dataset.NewGenerator(cfg.Seed).TrainSet(cfg.TrainPos, cfg.TrainNeg)
	scfg := core.DefaultSVMTrainConfig()
	scfg.MiningScenes = 2
	var acc float64
	for i := 0; i < b.N; i++ {
		part, err := core.TrainSVMPartition(core.ParadigmNApproxFP, e, ts, scfg)
		if err != nil {
			b.Fatal(err)
		}
		val := dataset.NewGenerator(cfg.Seed+555).TrainSet(40, 40)
		vp, err := core.DescriptorSet(e, val.Positives)
		if err != nil {
			b.Fatal(err)
		}
		vn, err := core.DescriptorSet(e, val.Negatives)
		if err != nil {
			b.Fatal(err)
		}
		acc = svm.Accuracy(part.Classifier.(*svm.Model), vp, vn)
	}
	b.ReportMetric(acc, "accuracy")
}

// BenchmarkAblation_CodingDeterministicVsStochastic reports parrot
// accuracy under both codings at 8 spikes.
func BenchmarkAblation_CodingDeterministicVsStochastic(b *testing.B) {
	opt := parrot.DefaultTrainOptions()
	opt.Samples = 1200
	opt.Hidden = 128
	opt.Train.Epochs = 20
	ex, _, err := parrot.Train(opt)
	if err != nil {
		b.Fatal(err)
	}
	val, err := parrot.GenerateSamples(200, 77)
	if err != nil {
		b.Fatal(err)
	}
	var det, sto float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		de, err := parrot.NewExtractor(ex.Net, 8, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		se, err := parrot.NewExtractor(ex.Net, 8, true, rand.New(rand.NewSource(9)))
		if err != nil {
			b.Fatal(err)
		}
		det = parrot.ClassAccuracy(de, val)
		sto = parrot.ClassAccuracy(se, val)
	}
	b.ReportMetric(det, "acc-deterministic")
	b.ReportMetric(sto, "acc-stochastic")
}

// --- cross-check: curves remain finite ------------------------------------

// BenchmarkEvalCurveConsistency guards the evaluation pipeline used by
// the figure benches: curves must be monotone in FPPI.
func BenchmarkEvalCurveConsistency(b *testing.B) {
	cfg := benchConfig()
	e, err := core.NewExtractor(core.ParadigmNApproxFP, hog.NormL2)
	if err != nil {
		b.Fatal(err)
	}
	ts := dataset.NewGenerator(cfg.Seed).TrainSet(cfg.TrainPos, cfg.TrainNeg)
	scfg := core.DefaultSVMTrainConfig()
	scfg.HardNegativeRounds = 0
	part, err := core.TrainSVMPartition(core.ParadigmNApproxFP, e, ts, scfg)
	if err != nil {
		b.Fatal(err)
	}
	det, err := part.Detector(cfg.Detect)
	if err != nil {
		b.Fatal(err)
	}
	scene := dataset.NewGenerator(5).Scene(cfg.SceneW, cfg.SceneH, 1, 130, 180)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		dets := det.Detect(scene.Image)
		n = len(dets)
		_ = stats.Point{}
	}
	b.ReportMetric(float64(n), "detections")
}
