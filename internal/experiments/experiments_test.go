package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hog"
)

// tiny returns a config small enough for unit tests.
func tiny() Config {
	c := Small()
	c.TrainPos, c.TrainNeg = 30, 60
	c.Scenes, c.EmptyScenes = 3, 2
	c.SceneW, c.SceneH = 224, 192
	c.ParrotSamples = 1500
	c.ParrotHidden = 128
	c.ParrotEpochs = 25
	c.ParrotWindow = 0
	c.Eedn.Train.Epochs = 30
	c.Eedn.Width = 128
	c.HardNegRounds = 0
	return c
}

func TestTable1NumericEquivalence(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// Gradient vector: both forms give Ix exactly.
	if rows[0].DemoConventional != rows[0].DemoTrueNorth {
		t.Errorf("gradient demo mismatch: %v vs %v",
			rows[0].DemoConventional, rows[0].DemoTrueNorth)
	}
	// Angle: the comparison form lands within one bin of atan2.
	if d := math.Abs(rows[1].DemoConventional - rows[1].DemoTrueNorth); d > 20 {
		t.Errorf("angle demo: conventional %v vs truenorth %v",
			rows[1].DemoConventional, rows[1].DemoTrueNorth)
	}
	// Magnitude: the inner-product form underestimates by at most
	// 1 - cos(half bin) ~= 1.5%.
	ratio := rows[2].DemoTrueNorth / rows[2].DemoConventional
	if ratio < 0.98 || ratio > 1.0+1e-9 {
		t.Errorf("magnitude demo ratio = %v", ratio)
	}
}

func TestTable2Delegates(t *testing.T) {
	rows, err := Table2()
	if err != nil || len(rows) != 6 {
		t.Fatalf("Table2: %v, %d rows", err, len(rows))
	}
}

func TestThroughputs(t *testing.T) {
	rows, err := Throughputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sec. 5.2: ~15 cells/s at 64-spike; 1000 at 1-spike.
	if math.Abs(rows[0].CellsPerSec-15.625) > 1e-9 {
		t.Errorf("napprox throughput = %v", rows[0].CellsPerSec)
	}
	if rows[3].CellsPerSec != 1000 {
		t.Errorf("1-spike throughput = %v", rows[3].CellsPerSec)
	}
	// NApprox needs hundreds of chips; parrot 1-spike under 4.
	if rows[0].Chips < 300 || rows[3].Chips > 4 {
		t.Errorf("chip sizing: %v vs %v", rows[0].Chips, rows[3].Chips)
	}
}

func TestHWValidationShort(t *testing.T) {
	res, err := HWValidation(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("HW/SW correlation over %d cells: %.4f (module %d cores)",
		res.Cells, res.Correlation, res.ModuleCores)
	if res.Correlation < 0.99 {
		t.Errorf("correlation = %v, want >= 0.99 (paper: 0.995)", res.Correlation)
	}
	if res.ModuleCores < 8 || res.ModuleCores > 40 {
		t.Errorf("module cores = %d", res.ModuleCores)
	}
}

func TestFig6MonotoneTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("parrot training")
	}
	cfg := tiny()
	points, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		t.Logf("window=%2d bits=%d acc=%.3f miss=%.3f stoch=%.3f",
			p.SpikeWindow, p.Bits, p.Accuracy, p.MissRate, p.StochasticAccuracy)
	}
	// Windows are descending; 32-spike should beat 1-spike clearly.
	first, last := points[0], points[len(points)-1]
	if first.SpikeWindow != 32 || last.SpikeWindow != 1 {
		t.Fatalf("window order wrong: %v", points)
	}
	if first.Accuracy < last.Accuracy {
		t.Errorf("32-spike accuracy (%v) below 1-spike (%v)",
			first.Accuracy, last.Accuracy)
	}
	if first.MissRate > last.MissRate {
		t.Errorf("32-spike miss rate (%v) above 1-spike (%v)",
			first.MissRate, last.MissRate)
	}
}

func TestFig4SmallShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full detection protocol")
	}
	cfg := tiny()
	curves, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		t.Logf("%s: LAMR=%.3f points=%d", c.Name, c.LAMR, len(c.Curve.Points))
		if len(c.Curve.Points) == 0 {
			t.Errorf("%s: empty curve", c.Name)
		}
		// All approaches must detect something: final miss rate < 1.
		last := c.Curve.Points[len(c.Curve.Points)-1]
		if last.Y >= 1 {
			t.Errorf("%s: detector found nothing", c.Name)
		}
	}
	// The paper's claim: the three approaches are comparable. Demand
	// that no curve's LAMR is catastrophically worse than the best.
	best := math.Inf(1)
	for _, c := range curves {
		if !math.IsNaN(c.LAMR) && c.LAMR < best {
			best = c.LAMR
		}
	}
	for _, c := range curves {
		if !math.IsNaN(c.LAMR) && c.LAMR > best+0.45 {
			t.Errorf("%s LAMR %.3f far above best %.3f — approaches should be comparable",
				c.Name, c.LAMR, best)
		}
	}
}

func TestFig5SmallShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full detection protocol with parrot")
	}
	if raceEnabled {
		// ~140s without instrumentation; the race detector's slowdown
		// pushes it past any reasonable package timeout, and its
		// concurrency (the parallel detector, the shared parrot rows)
		// runs under race via the detect and eedn suites.
		t.Skip("too slow under the race detector")
	}
	cfg := tiny()
	curves, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		t.Logf("%s: LAMR=%.3f points=%d", c.Name, c.LAMR, len(c.Curve.Points))
		if len(c.Curve.Points) == 0 {
			t.Errorf("%s: empty curve", c.Name)
		}
	}
}

func TestAbsorbedStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("monolithic training")
	}
	cfg := tiny()
	res, err := Absorbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("absorbed: rate=%.3f acc=%.3f blind=%v", res.PositiveRate, res.Accuracy, res.Blind)
	if !res.Blind && res.Accuracy > 0.75 {
		t.Errorf("absorbed converged unexpectedly well: %+v", res)
	}
}

func TestEnergyStudy(t *testing.T) {
	res, err := EnergyStudy(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("energy/cell: static %.3g J, dynamic %.3g J, %.0f synaptic events",
		res.StaticJoulesPerCell, res.DynamicJoulesPerCell, res.SynapticEventsPerCell)
	if res.StaticJoulesPerCell <= 0 || res.DynamicJoulesPerCell <= 0 {
		t.Errorf("non-positive energy: %+v", res)
	}
	// TrueNorth's raison d'etre: dynamic (event-driven) energy is far
	// below the static budget of keeping the cores powered.
	if res.DynamicJoulesPerCell >= res.StaticJoulesPerCell {
		t.Errorf("dynamic energy (%v) should be below static (%v)",
			res.DynamicJoulesPerCell, res.StaticJoulesPerCell)
	}
}

func TestSVMAccuracyProxy(t *testing.T) {
	cfg := tiny()
	e, err := core.NewExtractor(core.ParadigmNApproxFP, hog.NormL2)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := SVMAccuracy(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("napprox-fp SVM window accuracy: %.3f", acc)
	if acc < 0.75 {
		t.Errorf("accuracy proxy = %v, want >= 0.75", acc)
	}
}
