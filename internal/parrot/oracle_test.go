package parrot

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
)

// oracleInfer is the frozen per-cell float path that the inference
// kernel replaced: one Forward of the network on the pixels at window
// 0; otherwise window Forward passes over float frames, coded by
// thresholding against (t+0.5)/window or by one Rng draw per input, the
// outputs summed in tick order and scaled by 1/window.
func oracleInfer(e *Extractor, pix []float64) []float64 {
	if e.Window <= 0 {
		return e.Net.Forward(pix)
	}
	acc := make([]float64, e.Net.OutDim())
	frame := make([]float64, len(pix))
	for t := 0; t < e.Window; t++ {
		th := (float64(t) + 0.5) / float64(e.Window)
		for i, v := range pix {
			fire := v >= th
			if e.Stochastic {
				fire = e.Rng.Float64() < v
			}
			frame[i] = 0
			if fire {
				frame[i] = 1
			}
		}
		out := e.Net.Forward(frame)
		for i, v := range out {
			acc[i] += v
		}
	}
	inv := 1 / float64(e.Window)
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}

// oracleCellHistogram is the frozen per-cell CellHistogram: oracleInfer,
// then the median subtraction.
func oracleCellHistogram(e *Extractor, cell *imgproc.Image) []float64 {
	out := oracleInfer(e, cell.Pix)
	sorted := slices.Clone(out)
	slices.Sort(sorted)
	med := sorted[NBins/2]
	hist := make([]float64, NBins)
	for k, v := range out {
		if v > med {
			hist[k] = (v - med) * 64
		}
	}
	return hist
}

// sameBits reports whether a and b have the same IEEE-754 bits, any
// NaN matching any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// fuzzWindows are the coding windows FuzzParrotInference picks from.
var fuzzWindows = []int{0, 1, 2, 8, 32}

// fuzzPlants are the pixel values a plant byte selects.
var fuzzPlants = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	1e308, -1e308, 0, 1,
}

// FuzzParrotInference holds GridInto and CellHistogram to the frozen
// per-cell float path bit for bit: windows 0, 1, 2, 8 and 32 under
// deterministic coding and under stochastic coding with two rngs from
// one seed (so both sides must draw in the same order), hidden widths
// 1-600, images of 0-60 px a side (cell counts that are not a multiple
// of eedn.Lanes included), pixels in [-0.25, 1.25), and planted NaN,
// ±Inf, -0 and ±1e308 pixels. Each plant is a byte pair: a position
// and a value from fuzzPlants.
func FuzzParrotInference(f *testing.F) {
	f.Add(int64(1), uint8(0), false, uint16(63), uint8(40), uint8(24), []byte{})
	f.Add(int64(2), uint8(3), true, uint16(64), uint8(17), uint8(33), []byte{5, 0, 9, 1, 200, 3})
	f.Add(int64(3), uint8(4), false, uint16(64), uint8(60), uint8(9), []byte{1, 2, 77, 4, 78, 5})
	f.Fuzz(func(t *testing.T, seed int64, wsel uint8, stochastic bool, hidden uint16, w, h uint8, plants []byte) {
		window := fuzzWindows[int(wsel)%len(fuzzWindows)]
		width := int(hidden)%600 + 1
		rng := rand.New(rand.NewSource(seed))
		net, err := eedn.NewParrotNet(NBins, width, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range net.Layers {
			d := l.(*eedn.Dense)
			for j := range d.Bias {
				d.Bias[j] = rng.NormFloat64() * 0.3
			}
		}
		img := imgproc.New(int(w)%61, int(h)%61)
		for i := range img.Pix {
			img.Pix[i] = rng.Float64()*1.5 - 0.25
		}
		for i := 0; i+1 < len(plants) && len(img.Pix) > 0; i += 2 {
			img.Pix[int(plants[i])*len(img.Pix)/256] = fuzzPlants[int(plants[i+1])%len(fuzzPlants)]
		}
		newPair := func() (*Extractor, *Extractor) {
			var ra, rb *rand.Rand
			if stochastic && window > 0 {
				ra, rb = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			}
			a, err := NewExtractor(net, window, ra != nil, ra)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewExtractor(net, window, rb != nil, rb)
			if err != nil {
				t.Fatal(err)
			}
			return a, b
		}
		check := func(what string, cx, cy int, got, want []float64) {
			t.Helper()
			for k := range want {
				if !sameBits(got[k], want[k]) {
					t.Fatalf("%s: window %d stochastic %v hidden %d image %dx%d cell (%d,%d) bin %d: kernel %v, float path %v",
						what, window, stochastic, width, img.W, img.H, cx, cy, k, got[k], want[k])
				}
			}
		}

		ex, oracle := newPair()
		var g hog.Grid
		ex.GridInto(&g, img)
		if g.CellsX != img.W/8 || g.CellsY != img.H/8 {
			t.Fatalf("grid %dx%d for a %dx%d image", g.CellsX, g.CellsY, img.W, img.H)
		}
		for cy := 0; cy < g.CellsY; cy++ {
			for cx := 0; cx < g.CellsX; cx++ {
				want := oracleCellHistogram(oracle, img.SubImage(cx*8-1, cy*8-1, CellSide, CellSide))
				check("GridInto", cx, cy, g.Hist(cx, cy), want)
			}
		}

		ex, oracle = newPair()
		for cy := 0; cy < g.CellsY && cy < 2; cy++ {
			for cx := 0; cx < g.CellsX; cx++ {
				cell := img.SubImage(cx*8-1, cy*8-1, CellSide, CellSide)
				got, err := ex.CellHistogram(cell)
				if err != nil {
					t.Fatal(err)
				}
				check("CellHistogram", cx, cy, got, oracleCellHistogram(oracle, cell))
			}
		}
	})
}

// TestGridIntoAllocs checks that a warm parrot GridInto allocates
// nothing at window 0 and under deterministic window-8 coding.
func TestGridIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	net, err := eedn.NewParrotNet(NBins, 64, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	img := imgproc.New(83, 70)
	for i := range img.Pix {
		img.Pix[i] = float64(i%29) / 29
	}
	for _, window := range []int{0, 8} {
		ex, err := NewExtractor(net, window, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		var g hog.Grid
		ex.GridInto(&g, img)
		if n := testing.AllocsPerRun(10, func() { ex.GridInto(&g, img) }); n != 0 {
			t.Errorf("window %d: warm GridInto made %v allocations, want 0", window, n)
		}
	}
}

// TestNewExtractorRejectsNonDense checks that a network the inference
// kernel cannot run is refused at construction.
func TestNewExtractorRejectsNonDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv, err := eedn.NewConv2D(1, CellSide, CellSide, 2, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	head := eedn.NewDense(conv.OutDim(), NBins, rng)
	head.Linear = true
	net, err := eedn.NewNetwork(conv, head)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewExtractor(net, 0, false, nil); err == nil {
		t.Error("network with a convolutional layer accepted")
	}
}

// TestGenerateSamplesCounts checks the degenerate counts: 0 yields no
// samples and a negative count an error, not a panic.
func TestGenerateSamplesCounts(t *testing.T) {
	s, err := GenerateSamples(0, 1)
	if err != nil || len(s) != 0 {
		t.Errorf("GenerateSamples(0) = %d samples, %v; want none, nil", len(s), err)
	}
	if _, err := GenerateSamples(-1, 1); err == nil {
		t.Error("GenerateSamples(-1) returned no error")
	}
}
