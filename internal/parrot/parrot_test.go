package parrot

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
)

func TestGenerateSamplesShapeAndDeterminism(t *testing.T) {
	a, err := GenerateSamples(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 20 {
		t.Fatalf("got %d samples", len(a))
	}
	for i, s := range a {
		if len(s.Pixels) != 100 || len(s.Target) != 18 {
			t.Fatalf("sample %d dims %d/%d", i, len(s.Pixels), len(s.Target))
		}
		for _, v := range s.Pixels {
			if v < 0 || v > 1 {
				t.Fatalf("pixel out of range %v", v)
			}
		}
		for _, v := range s.Target {
			if v < 0 || v > 1 {
				t.Fatalf("target out of range %v", v)
			}
		}
		if s.Label < -1 || s.Label >= 18 {
			t.Fatalf("label out of range %d", s.Label)
		}
	}
	b, err := GenerateSamples(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i].Pixels {
			if a[i].Pixels[j] != b[i].Pixels[j] {
				t.Fatal("samples not deterministic")
			}
		}
	}
}

func TestOrientedSamplesHaveOrientedLabels(t *testing.T) {
	samples, err := GenerateSamples(400, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Structured samples (3 of every 4) should mostly have labels, and
	// labels should spread across many bins.
	labeled := 0
	seen := map[int]bool{}
	for _, s := range samples {
		if s.Label >= 0 {
			labeled++
			seen[s.Label] = true
		}
	}
	if labeled < len(samples)/2 {
		t.Errorf("only %d/%d samples labeled", labeled, len(samples))
	}
	if len(seen) < 12 {
		t.Errorf("labels cover only %d bins", len(seen))
	}
}

var (
	trainOnce   sync.Once
	trainCached *Extractor
	trainErr    error
	trainLoss   float64
)

// trainSmall trains a quick parrot once and shares it across tests.
func trainSmall(t testing.TB) *Extractor {
	t.Helper()
	trainOnce.Do(func() {
		opt := DefaultTrainOptions()
		opt.Samples = 2000
		opt.Hidden = 256
		opt.Train.Epochs = 40
		trainCached, trainLoss, trainErr = Train(opt)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	// Hinge loss over 18 one-vs-all outputs: most margins satisfied
	// leaves a loss well under the all-wrong value of 18.
	if trainLoss <= 0 || trainLoss > 6 {
		t.Fatalf("suspicious training loss %v", trainLoss)
	}
	// Return a fresh wrapper so tests mutating extractor state (norm,
	// window) do not interfere.
	ex, err := NewExtractor(trainCached.Net, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestTrainedParrotMimicsReference(t *testing.T) {
	ex := trainSmall(t)
	val, err := GenerateSamples(300, 1234)
	if err != nil {
		t.Fatal(err)
	}
	r, err := MimicryCorrelation(ex, val)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("parrot mimicry correlation: %.3f", r)
	if r < 0.3 {
		t.Errorf("mimicry correlation = %v, want >= 0.3", r)
	}
	acc := ClassAccuracy(ex, val)
	t.Logf("parrot class accuracy: %.3f", acc)
	if acc < 0.35 {
		t.Errorf("class accuracy = %v, want >= 0.35 (chance is 1/18)", acc)
	}
}

func TestPrecisionDegradesGracefully(t *testing.T) {
	// Fig. 6's premise: accuracy decreases as spike precision drops,
	// with full precision at least as good as 1-spike.
	ex := trainSmall(t)
	val, err := GenerateSamples(200, 99)
	if err != nil {
		t.Fatal(err)
	}
	accAt := func(window int) float64 {
		e2, err := NewExtractor(ex.Net, window, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ClassAccuracy(e2, val)
	}
	full := ClassAccuracy(ex, val)
	a32 := accAt(32)
	a1 := accAt(1)
	t.Logf("accuracy full=%.3f 32-spike=%.3f 1-spike=%.3f", full, a32, a1)
	if a1 > a32+0.05 {
		t.Errorf("1-spike (%v) should not beat 32-spike (%v)", a1, a32)
	}
	if a32 < full-0.25 {
		t.Errorf("32-spike (%v) too far below full precision (%v)", a32, full)
	}
}

func TestStochasticCodingRuns(t *testing.T) {
	ex := trainSmall(t)
	rng := rand.New(rand.NewSource(3))
	se, err := NewExtractor(ex.Net, 8, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	cell := imgproc.New(10, 10)
	for i := range cell.Pix {
		cell.Pix[i] = float64(i%10) / 10
	}
	h, err := se.CellHistogram(cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 18 {
		t.Fatalf("hist len %d", len(h))
	}
	if _, err := NewExtractor(ex.Net, 8, true, nil); err == nil {
		t.Error("stochastic without rng should error")
	}
}

func TestNewExtractorValidation(t *testing.T) {
	if _, err := NewExtractor(nil, 0, false, nil); err == nil {
		t.Error("nil net should error")
	}
	rng := rand.New(rand.NewSource(1))
	bad, _ := eedn.NewParrotNet(7, 128, rng) // wrong out dim
	if _, err := NewExtractor(bad, 0, false, nil); err == nil {
		t.Error("wrong dims should error")
	}
}

func TestCellHistogramSizeError(t *testing.T) {
	ex := trainSmall(t)
	if _, err := ex.CellHistogram(imgproc.New(8, 8)); err == nil {
		t.Error("wrong cell size should error")
	}
}

// TestCellGridAndDescriptor checks the cell grid GridInto fills — every
// cell, border cells included, must equal CellHistogram of the cell's
// replicate-padded bordered patch — and the window descriptor served
// from it.
func TestCellGridAndDescriptor(t *testing.T) {
	ex := trainSmall(t)
	win := imgproc.New(64, 128)
	for i := range win.Pix {
		win.Pix[i] = float64(i%17) / 17
	}
	var g hog.Grid
	ex.GridInto(&g, win)
	if g.CellsY != 16 || g.CellsX != 8 {
		t.Fatalf("grid %dx%d", g.CellsX, g.CellsY)
	}
	for cy := 0; cy < g.CellsY; cy++ {
		for cx := 0; cx < g.CellsX; cx++ {
			want, err := ex.CellHistogram(win.SubImage(cx*8-1, cy*8-1, CellSide, CellSide))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Hist(cx, cy), want) {
				t.Fatalf("cell (%d,%d): grid %v, CellHistogram %v", cx, cy, g.Hist(cx, cy), want)
			}
		}
	}
	d, err := ex.DescriptorInto(nil, &g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 7560 {
		t.Errorf("descriptor len %d, want 7560", len(d))
	}
	if _, err := ex.DescriptorInto(nil, &g, 1, 0); err == nil {
		t.Error("window past the grid edge should error")
	}
}

func TestSetNorm(t *testing.T) {
	ex := trainSmall(t)
	win := imgproc.New(64, 128)
	for i := range win.Pix {
		win.Pix[i] = float64(i%13) / 13
	}
	if err := ex.SetNorm(1 /* hog.NormL2 */); err != nil {
		t.Fatal(err)
	}
	var g hog.Grid
	ex.GridInto(&g, win)
	d, err := ex.DescriptorInto(nil, &g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every block normalized: no value exceeds 1.
	for _, v := range d {
		if v > 1+1e-9 {
			t.Fatalf("normalized descriptor value %v > 1", v)
		}
	}
}

func BenchmarkParrotCell(b *testing.B) {
	ex := trainSmall(b)
	cell := imgproc.New(10, 10)
	for i := range cell.Pix {
		cell.Pix[i] = float64(i%10) / 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ex.CellHistogram(cell)
	}
}

func BenchmarkParrotCell32Spike(b *testing.B) {
	ex := trainSmall(b)
	e32, _ := NewExtractor(ex.Net, 32, false, nil)
	cell := imgproc.New(10, 10)
	for i := range cell.Pix {
		cell.Pix[i] = float64(i%10) / 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e32.CellHistogram(cell)
	}
}
