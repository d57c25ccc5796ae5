// Package experiments regenerates every table and figure of the
// paper's evaluation on the synthetic substrate. Each experiment is a
// pure function of a Config so the command-line tool (cmd/pcnn-eval),
// the benchmark harness (bench_test.go) and the tests all produce the
// same artifacts.
//
// Index (see DESIGN.md section 5):
//
//	Table1()    - HoG conventional vs TrueNorth computation, with a
//	              numeric equivalence demonstration
//	Fig4()      - miss rate vs FPPI with SVM classifiers:
//	              FPGA-HoG, NApprox(fp), NApprox 64-spike
//	Fig5()      - miss rate vs FPPI with Eedn classifiers:
//	              NApprox vs Parrot (no block norm)
//	Fig6()      - parrot accuracy/miss rate vs spike precision
//	Table2()    - power estimation (delegates to internal/power)
//	Absorbed()  - the Sec. 5.1 monolithic non-convergence study
//	HWValidation() - the Sec. 3.1 hardware/software correlation
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/napprox"
	"repro/internal/obs"
	"repro/internal/parrot"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/svm"
	"repro/internal/truenorth"
)

// simEngine selects the truenorth execution engine for every
// experiment that instantiates a simulator. The engines are
// bit-identical, so this only affects speed; cmd/pcnn-eval exposes it
// as -engine for benchmarking the two against each other.
var simEngine = truenorth.EngineSparse

// SetSimulatorEngine switches the execution engine used by subsequent
// experiment runs (process-wide; not safe to flip concurrently with a
// running experiment).
func SetSimulatorEngine(e truenorth.Engine) { simEngine = e }

// simShards / simPartition select the sharded execution mode for every
// experiment simulator: the core graph is split across simShards
// worker goroutines using the simPartition strategy. Sharded execution
// is bit-identical to single-goroutine execution, so — like the engine
// choice — this only affects speed; cmd/pcnn-eval exposes both as
// -shards / -partition.
var (
	simShards    = 1
	simPartition = truenorth.PartitionBlock
)

// SetSimulatorShards switches the shard count and partition strategy
// used by subsequent experiment runs (process-wide; not safe to flip
// concurrently with a running experiment). n <= 1 restores the
// default single-goroutine mode.
func SetSimulatorShards(n int, strategy truenorth.PartitionStrategy) {
	simShards = n
	simPartition = strategy
}

// newSimulator builds a simulator on the configured engine and shard
// count. Callers should defer sim.Close() to join shard workers.
func newSimulator(m *truenorth.Model, seed int64) (*truenorth.Simulator, error) {
	return truenorth.NewSimulator(m, seed,
		truenorth.WithEngine(simEngine),
		truenorth.WithShards(simShards),
		truenorth.WithPartitionStrategy(simPartition))
}

// Config sizes an experiment run.
type Config struct {
	Seed int64
	// Training windows.
	TrainPos, TrainNeg int
	// Test scenes (with persons) and person-free scenes.
	Scenes, EmptyScenes int
	SceneW, SceneH      int
	PersonsPerScene     int
	// PersonMinH/MaxH bound ground-truth heights.
	PersonMinH, PersonMaxH int
	// Detect is the sliding-window protocol.
	Detect detect.Config
	// Parrot training size.
	ParrotSamples int
	ParrotHidden  int
	ParrotEpochs  int
	// ParrotWindow is the spike precision used for parrot features in
	// Fig. 5 (the paper uses 32; smaller is faster).
	ParrotWindow int
	// Eedn classifier head configuration.
	Eedn core.EednTrainConfig
	// SVM head configuration.
	SVM core.SVMTrainConfig
	// HardNegRounds for the Fig. 4 protocol.
	HardNegRounds int
}

// Small returns a configuration sized for tests and benchmarks
// (minutes, not hours). The protocol is the paper's; only the sample
// counts and scene sizes shrink.
func Small() Config {
	det := detect.DefaultConfig()
	// Keep sub-zero-scoring candidates so the miss-rate/FPPI curve is
	// populated across the full FPPI range; NMS and the evaluation
	// threshold sweep handle the extra candidates.
	det.Threshold = -0.6
	svmCfg := core.DefaultSVMTrainConfig()
	svmCfg.MiningScenes = 2
	return Config{
		Seed:     17,
		TrainPos: 60, TrainNeg: 120,
		Scenes: 6, EmptyScenes: 3,
		SceneW: 288, SceneH: 224,
		PersonsPerScene: 1,
		PersonMinH:      130, PersonMaxH: 190,
		Detect:        det,
		ParrotSamples: 4000, ParrotHidden: 512, ParrotEpochs: 60,
		ParrotWindow:  8,
		Eedn:          core.DefaultEednTrainConfig(),
		SVM:           svmCfg,
		HardNegRounds: 1,
	}
}

// Full returns the paper-protocol-sized configuration (INRIA-like
// training counts, full 32-spike parrot coding). Expect long runtimes.
func Full() Config {
	c := Small()
	c.TrainPos, c.TrainNeg = 500, 1200
	c.Scenes, c.EmptyScenes = 25, 10
	c.SceneW, c.SceneH = 640, 480
	c.PersonsPerScene = 2
	c.PersonMinH, c.PersonMaxH = 130, 380
	c.ParrotSamples = 8000
	c.ParrotWindow = 32
	return c
}

// CurveResult is one line of a miss-rate/FPPI figure.
type CurveResult struct {
	Name  string
	Curve *stats.Curve
	// LAMR is the log-average miss rate over FPPI 0.01..1.
	LAMR float64
	// DescriptorErrors counts windows the detector dropped because the
	// extractor failed to produce a descriptor. Non-zero means the scan
	// silently shrank; pcnn-eval surfaces it.
	DescriptorErrors uint64
}

// evalPartition runs the detection protocol for a partition over the
// shared test scenes and returns its curve. Scenes are generated up
// front (same generator call order as scanning them one by one) and
// detected as a batch, so cfg.Detect.Workers pipelines whole images.
func evalPartition(name string, part *core.Partition, cfg Config) (CurveResult, error) {
	det, err := part.Detector(cfg.Detect)
	if err != nil {
		return CurveResult{}, err
	}
	gen := dataset.NewGenerator(cfg.Seed + 1000)
	var imgs []*imgproc.Image
	var truths [][]dataset.Box
	for i := 0; i < cfg.Scenes; i++ {
		scene := gen.Scene(cfg.SceneW, cfg.SceneH, cfg.PersonsPerScene, cfg.PersonMinH, cfg.PersonMaxH)
		imgs = append(imgs, scene.Image)
		truths = append(truths, scene.Truth)
	}
	for i := 0; i < cfg.EmptyScenes; i++ {
		imgs = append(imgs, gen.NegativeImage(cfg.SceneW, cfg.SceneH))
		truths = append(truths, nil)
	}
	errsBefore := det.DescriptorErrors()
	dets := det.DetectAll(imgs)
	curve := detect.Evaluate(dets, truths, 0.5)
	curve.Name = name
	return CurveResult{
		Name: name, Curve: curve, LAMR: detect.LogAvgMissRate(curve),
		DescriptorErrors: det.DescriptorErrors() - errsBefore,
	}, nil
}

// publishCoreletActivity drives the NApprox cell corelet on the
// TrueNorth simulator over a small sample of synthetic cells. The
// figure experiments score their curves with the bit-equivalent
// software extractors, which never touch the simulator; when telemetry
// is enabled this samples the spiking design those curves stand for,
// so figure snapshots carry real spike/tick/energy counters. No-op
// when telemetry is off; never fails the experiment.
func publishCoreletActivity(cells int, seed int64) {
	if !obs.Enabled() {
		return
	}
	mod, err := napprox.BuildCellModule(napprox.TrueNorthConfig())
	if err != nil {
		return
	}
	sim, err := newSimulator(mod.Model, 1)
	if err != nil {
		return
	}
	defer sim.Close()
	rng := rand.New(rand.NewSource(seed))
	cell := imgproc.New(10, 10)
	for i := 0; i < cells; i++ {
		theta := rng.Float64() * 2 * math.Pi
		amp := 0.05 + rng.Float64()*0.2
		for y := 0; y < 10; y++ {
			for x := 0; x < 10; x++ {
				v := 0.5 + amp*(math.Cos(theta)*float64(x)-math.Sin(theta)*float64(y))/2
				cell.Set(x, y, v+(rng.Float64()-0.5)*0.1)
			}
		}
		cell.Clamp01()
		if _, err := mod.Extract(sim, cell); err != nil {
			return
		}
	}
}

// trainSet returns the shared training windows for a config.
func trainSet(cfg Config) dataset.TrainSet {
	return dataset.NewGenerator(cfg.Seed).TrainSet(cfg.TrainPos, cfg.TrainNeg)
}

// Fig4 reproduces the SVM-classifier comparison: the FPGA baseline,
// the full-precision NApprox software model and the TrueNorth-
// quantized NApprox, all with L2 block normalization and hard-negative
// mining, should produce comparable curves.
func Fig4(cfg Config) ([]CurveResult, error) {
	publishCoreletActivity(32, cfg.Seed)
	ts := trainSet(cfg)
	svmCfg := cfg.SVM
	svmCfg.HardNegativeRounds = cfg.HardNegRounds
	svmCfg.Detect = cfg.Detect

	var out []CurveResult
	for _, pc := range []struct {
		name string
		p    core.Paradigm
	}{
		{"FPGA-HoG (9 bins, fixed-point) + SVM", core.ParadigmFPGA},
		{"NApprox(fp) (18 bins) + SVM", core.ParadigmNApproxFP},
		{"NApprox 64-spike + SVM", core.ParadigmNApprox},
	} {
		ext, err := core.NewExtractor(pc.p, hog.NormL2)
		if err != nil {
			return nil, err
		}
		part, err := core.TrainSVMPartition(pc.p, ext, ts, svmCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", pc.name, err)
		}
		res, err := evalPartition(pc.name, part, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig5 reproduces the Eedn-classifier comparison: NApprox and Parrot
// features (block normalization elided, as on TrueNorth) with the same
// Eedn classifier configuration.
func Fig5(cfg Config) ([]CurveResult, error) {
	publishCoreletActivity(32, cfg.Seed)
	ts := trainSet(cfg)

	var out []CurveResult

	// NApprox + Eedn.
	na, err := core.NewExtractor(core.ParadigmNApprox, hog.NormNone)
	if err != nil {
		return nil, err
	}
	part, err := core.TrainEednPartition(core.ParadigmNApprox, na, ts, cfg.Eedn)
	if err != nil {
		return nil, err
	}
	res, err := evalPartition("NApprox 64-spike + Eedn", part, cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, res)

	// Parrot + Eedn at the configured spike precision.
	pex, err := trainParrot(cfg)
	if err != nil {
		return nil, err
	}
	win, err := parrot.NewExtractor(pex.Net, cfg.ParrotWindow, false, nil)
	if err != nil {
		return nil, err
	}
	wrapped := core.WrapParrot(win)
	part2, err := core.TrainEednPartition(core.ParadigmParrot, wrapped, ts, cfg.Eedn)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("Parrot %d-spike + Eedn", cfg.ParrotWindow)
	if cfg.ParrotWindow == 0 {
		name = "Parrot (full precision) + Eedn"
	}
	res2, err := evalPartition(name, part2, cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, res2)
	return out, nil
}

func trainParrot(cfg Config) (*parrot.Extractor, error) {
	opt := parrot.DefaultTrainOptions()
	opt.Samples = cfg.ParrotSamples
	opt.Hidden = cfg.ParrotHidden
	opt.Train.Epochs = cfg.ParrotEpochs
	opt.Seed = cfg.Seed
	ex, _, err := parrot.Train(opt)
	return ex, err
}

// Fig6Point is one x-position of Fig. 6.
type Fig6Point struct {
	SpikeWindow int
	Bits        int
	// Accuracy is the exact-bin classification accuracy on the
	// validation set of the parrot training data.
	Accuracy float64
	// MissRate is the fraction of validation samples whose true
	// orientation is not within one bin of the prediction.
	MissRate float64
	// StochasticAccuracy uses Bernoulli input coding instead of the
	// deterministic schedule.
	StochasticAccuracy float64
}

// Fig6 reproduces the precision/accuracy trade-off: the parrot is
// evaluated at decreasing input spike precision.
func Fig6(cfg Config) ([]Fig6Point, error) {
	ex, err := trainParrot(cfg)
	if err != nil {
		return nil, err
	}
	val, err := parrot.GenerateSamples(400, cfg.Seed+99)
	if err != nil {
		return nil, err
	}
	var out []Fig6Point
	for _, w := range []int{32, 16, 8, 4, 2, 1} {
		det, err := parrot.NewExtractor(ex.Net, w, false, nil)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
		sto, err := parrot.NewExtractor(ex.Net, w, true, rng)
		if err != nil {
			return nil, err
		}
		acc := parrot.ClassAccuracy(det, val)
		out = append(out, Fig6Point{
			SpikeWindow:        w,
			Bits:               truenorth.SpikeBits(w),
			Accuracy:           acc,
			MissRate:           missRateWithin1(det, val),
			StochasticAccuracy: parrot.ClassAccuracy(sto, val),
		})
	}
	return out, nil
}

// missRateWithin1 is the fraction of labeled samples whose predicted
// bin is more than one bin from the truth.
func missRateWithin1(e *parrot.Extractor, samples []parrot.Sample) float64 {
	miss, n := 0, 0
	cell := imgproc.New(parrot.CellSide, parrot.CellSide)
	for _, s := range samples {
		if s.Label < 0 {
			continue
		}
		n++
		copy(cell.Pix, s.Pixels)
		h, err := e.CellHistogram(cell)
		if err != nil {
			continue
		}
		p := stats.ArgMax(h)
		d := (p - s.Label + parrot.NBins) % parrot.NBins
		if d > 1 && d < parrot.NBins-1 {
			miss++
		}
	}
	if n == 0 {
		return 1
	}
	return float64(miss) / float64(n)
}

// Table1Row documents one HoG operation's conventional and TrueNorth
// forms, with a numeric demonstration on a sample gradient.
type Table1Row struct {
	Operation    string
	Conventional string
	TrueNorth    string
	// DemoConventional and DemoTrueNorth evaluate both forms on the
	// same sample input to demonstrate equivalence.
	DemoConventional float64
	DemoTrueNorth    float64
}

// Table1 regenerates the Table 1 mapping with a numeric check on a
// sample gradient (Ix, Iy) = (12, 5): angle and magnitude from the
// conventional formulas versus the comparison/inner-product forms at
// exact weights.
func Table1() []Table1Row {
	const ix, iy = 12.0, 5.0
	cfg := napprox.FullPrecision()
	a, b := cfg.DirectionWeights()
	best, bestV := 0, math.Inf(-1)
	for k := range a {
		if m := a[k]*ix + b[k]*iy; m > bestV {
			best, bestV = k, m
		}
	}
	angleConv := math.Atan2(iy, ix) * 180 / math.Pi
	angleTN := float64(best) * 360 / float64(cfg.NBins)
	magConv := math.Hypot(ix, iy)
	return []Table1Row{
		{
			Operation:        "Gradient vector",
			Conventional:     "filters (-1 0 1) and (-1 0 1)' -> Ix, Iy",
			TrueNorth:        "filters (-1 0 1),(1 0 -1),(-1 0 1)',(1 0 -1)' -> Ix,-Ix,Iy,-Iy (pattern matching)",
			DemoConventional: ix,
			DemoTrueNorth:    ix, // +rail minus -rail reconstructs Ix exactly
		},
		{
			Operation:        "Gradient angle",
			Conventional:     "theta = atan(Iy/Ix)",
			TrueNorth:        "theta maximizing Ix cos(theta) + Iy sin(theta) (comparison)",
			DemoConventional: angleConv,
			DemoTrueNorth:    angleTN,
		},
		{
			Operation:        "Gradient magnitude",
			Conventional:     "sqrt(Ix^2 + Iy^2)",
			TrueNorth:        "Ix cos(theta) + Iy sin(theta) at the winning theta (inner product)",
			DemoConventional: magConv,
			DemoTrueNorth:    bestV,
		},
		{
			Operation:        "Histogram",
			Conventional:     "binned by magnitude, 9 bins 0-180 or 18 bins 0-360",
			TrueNorth:        "binned by count, 18 bins 0-360 (inner product)",
			DemoConventional: magConv, // vote weight
			DemoTrueNorth:    1,       // one count
		},
	}
}

// Table2 regenerates the power table (see internal/power).
func Table2() ([]power.Row, error) { return power.Table2() }

// Absorbed runs the Sec. 5.1 monolithic study on the same training
// set size the partitioned approaches use.
func Absorbed(cfg Config) (*core.AbsorbedResult, error) {
	ts := trainSet(cfg)
	val := dataset.NewGenerator(cfg.Seed+7).TrainSet(30, 30)
	eval := append(append([]*imgproc.Image{}, val.Positives...), val.Negatives...)
	labels := make([]bool, len(eval))
	for i := range val.Positives {
		labels[i] = true
	}
	tc := eedn.DefaultTrainConfig()
	tc.Epochs = 4
	tc.LR = 0.02
	return core.TrainAbsorbed(ts, eval, labels, tc, cfg.Seed)
}

// HWValidationResult reports the Sec. 3.1 correlation study.
type HWValidationResult struct {
	Cells       int
	Correlation float64
	ModuleCores int
}

// HWValidation runs the NApprox corelet against the equivalent
// software model on n synthetic cells and reports their correlation
// (the paper reports over 99.5% on a thousand INRIA cells).
func HWValidation(n int, seed int64) (*HWValidationResult, error) {
	mod, err := napprox.BuildCellModule(napprox.TrueNorthConfig())
	if err != nil {
		return nil, err
	}
	sim, err := newSimulator(mod.Model, 1)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	swCfg := napprox.TrueNorthConfig()
	swCfg.Mode = napprox.VoteRace
	sw, err := napprox.New(swCfg, hog.NormNone)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var hw, ref []float64
	cell := imgproc.New(10, 10)
	for i := 0; i < n; i++ {
		for j := range cell.Pix {
			cell.Pix[j] = rng.Float64()
		}
		if i%2 == 0 {
			// Oriented content mirrors training-image statistics.
			theta := rng.Float64() * 2 * math.Pi
			amp := 0.05 + rng.Float64()*0.2
			for y := 0; y < 10; y++ {
				for x := 0; x < 10; x++ {
					v := 0.5 + amp*(math.Cos(theta)*float64(x)-math.Sin(theta)*float64(y))/2
					cell.Set(x, y, v+(rng.Float64()-0.5)*0.1)
				}
			}
		}
		cell.Clamp01()
		h1, err := mod.Extract(sim, cell)
		if err != nil {
			return nil, err
		}
		h2, err := sw.CellHistogram(cell)
		if err != nil {
			return nil, err
		}
		hw = append(hw, h1...)
		ref = append(ref, h2...)
	}
	r, err := stats.Pearson(hw, ref)
	if err != nil {
		return nil, err
	}
	return &HWValidationResult{Cells: n, Correlation: r, ModuleCores: mod.Cores()}, nil
}

// ThroughputRow is one line of the Sec. 5.2 sizing discussion.
type ThroughputRow struct {
	Design      string
	SpikeWindow int
	CellsPerSec float64
	Chips       float64
	Watts       float64
}

// Throughputs reproduces the Sec. 5.2 module throughput and full-HD
// sizing numbers.
func Throughputs() ([]ThroughputRow, error) {
	cellsPerSec := float64(power.FullHDCellsPerFrame()) * power.FullHDFrameRate
	var out []ThroughputRow
	for _, d := range []struct {
		name   string
		cores  int
		window int
	}{
		{"NApprox", power.NApproxCoresPerModule, 64},
		{"Parrot", power.ParrotCoresPerCell, 32},
		{"Parrot", power.ParrotCoresPerCell, 4},
		{"Parrot", power.ParrotCoresPerCell, 1},
	} {
		est, err := power.SizeTrueNorth(d.name, d.cores, d.window, cellsPerSec)
		if err != nil {
			return nil, err
		}
		out = append(out, ThroughputRow{
			Design:      d.name,
			SpikeWindow: d.window,
			CellsPerSec: power.ModuleThroughput(d.window),
			Chips:       est.Chips,
			Watts:       est.Watts,
		})
	}
	return out, nil
}

// ErrUnknownFigure reports an unrecognized experiment id.
var ErrUnknownFigure = fmt.Errorf("experiments: unknown figure")

// EnergyResult compares the paper's static (chip-count) power model
// with an activity-based dynamic-energy estimate measured on the
// simulator — an extension beyond Table 2's methodology.
type EnergyResult struct {
	Cells int
	// StaticJoulesPerCell is module power x window time (the Table 2
	// accounting applied per cell).
	StaticJoulesPerCell float64
	// DynamicJoulesPerCell is measured synaptic/router activity times
	// published per-event energies.
	DynamicJoulesPerCell float64
	// SynapticEventsPerCell is the measured average.
	SynapticEventsPerCell float64
}

// EnergyStudy measures per-cell energy of the NApprox corelet over n
// synthetic cells.
func EnergyStudy(n int, seed int64) (*EnergyResult, error) {
	mod, err := napprox.BuildCellModule(napprox.TrueNorthConfig())
	if err != nil {
		return nil, err
	}
	sim, err := newSimulator(mod.Model, 1)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	rng := rand.New(rand.NewSource(seed))
	cell := imgproc.New(10, 10)
	var dynamicTotal, synTotal float64
	for i := 0; i < n; i++ {
		theta := rng.Float64() * 2 * math.Pi
		amp := 0.05 + rng.Float64()*0.2
		for y := 0; y < 10; y++ {
			for x := 0; x < 10; x++ {
				v := 0.5 + amp*(math.Cos(theta)*float64(x)-math.Sin(theta)*float64(y))/2
				cell.Set(x, y, v+(rng.Float64()-0.5)*0.1)
			}
		}
		cell.Clamp01()
		if _, err := mod.Extract(sim, cell); err != nil {
			return nil, err
		}
		e := truenorth.CollectEnergy(sim)
		dynamicTotal += e.ActiveEnergyJoules()
		synTotal += float64(e.SynapticEvents)
	}
	windowSeconds := float64(mod.Window) / power.TickHz
	static := float64(mod.Cores()) * truenorth.WattsPerCore * windowSeconds
	return &EnergyResult{
		Cells:                 n,
		StaticJoulesPerCell:   static,
		DynamicJoulesPerCell:  dynamicTotal / float64(n),
		SynapticEventsPerCell: synTotal / float64(n),
	}, nil
}

// SVMAccuracy is a quick feature-quality proxy: window classification
// accuracy of an SVM head on held-out windows, used by ablation
// benches where full curves are too slow.
func SVMAccuracy(e core.Extractor, cfg Config) (float64, error) {
	ts := trainSet(cfg)
	pos, err := core.DescriptorSet(e, ts.Positives)
	if err != nil {
		return 0, err
	}
	neg, err := core.DescriptorSet(e, ts.Negatives)
	if err != nil {
		return 0, err
	}
	model, err := svm.Train(pos, neg, svm.DefaultTrainOptions())
	if err != nil {
		return 0, err
	}
	val := dataset.NewGenerator(cfg.Seed+555).TrainSet(40, 40)
	vp, err := core.DescriptorSet(e, val.Positives)
	if err != nil {
		return 0, err
	}
	vn, err := core.DescriptorSet(e, val.Negatives)
	if err != nil {
		return 0, err
	}
	return svm.Accuracy(model, vp, vn), nil
}
