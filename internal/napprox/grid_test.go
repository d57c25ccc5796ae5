package napprox

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/detect"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/stats"
)

// cellGrid builds a cell grid one cell at a time through CellHistogram,
// each cell read as its replicate-padded bordered patch, in [cy][cx]
// indexing.
func cellGrid(t *testing.T, e *Extractor, img *imgproc.Image) [][][]float64 {
	t.Helper()
	cs := e.cfg.CellSize
	rows := make([][][]float64, img.H/cs)
	for cy := range rows {
		rows[cy] = make([][]float64, img.W/cs)
		for cx := range rows[cy] {
			h, err := e.CellHistogram(img.SubImage(cx*cs-1, cy*cs-1, cs+2, cs+2))
			if err != nil {
				t.Fatal(err)
			}
			rows[cy][cx] = h
		}
	}
	return rows
}

// windowDescriptor assembles, independently of hog's block plane, the
// descriptor New's assembler serves for the 8x16-cell window at
// (cellX, cellY): 2x2-cell blocks at stride 1 in raster order, cells
// within a block in raster order, each block L2-normalized by
// stats.Normalize when l2 is set.
func windowDescriptor(grid [][][]float64, cellX, cellY int, l2 bool) []float64 {
	var out []float64
	for by := 0; by+2 <= 16; by++ {
		for bx := 0; bx+2 <= 8; bx++ {
			start := len(out)
			for j := 0; j < 2; j++ {
				for i := 0; i < 2; i++ {
					out = append(out, grid[cellY+by+j][cellX+bx+i]...)
				}
			}
			if l2 {
				stats.Normalize(out[start:])
			}
		}
	}
	return out
}

// TestGridIntoMatchesCellGrid checks the flat-grid path against the
// per-cell one in both quantized and full-precision modes: every cell
// GridInto fills must be bit-identical to CellHistogram of the cell's
// bordered patch, and DescriptorInto, under L2 and under no
// normalization, must match the per-window assembly of those cells at
// every window.
func TestGridIntoMatchesCellGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	img := imgproc.New(96, 160)
	for i := range img.Pix {
		img.Pix[i] = rng.Float64()
	}
	for name, cfg := range map[string]Config{
		"truenorth": TrueNorthConfig(),
		"fp":        FullPrecision(),
	} {
		for _, norm := range []hog.NormMode{hog.NormL2, hog.NormNone} {
			e := mustNew(t, cfg, norm)
			legacy := cellGrid(t, e, img)
			var g hog.Grid
			e.GridInto(&g, img)
			if g.CellsX != 12 || g.CellsY != 20 || g.Bins != cfg.NBins {
				t.Fatalf("%s: grid %dx%dx%d, want 12x20x%d", name, g.CellsX, g.CellsY, g.Bins, cfg.NBins)
			}
			for cy := 0; cy < g.CellsY; cy++ {
				for cx := 0; cx < g.CellsX; cx++ {
					if !reflect.DeepEqual(g.Hist(cx, cy), legacy[cy][cx]) {
						t.Fatalf("%s: cell (%d,%d): GridInto %v, CellHistogram %v",
							name, cx, cy, g.Hist(cx, cy), legacy[cy][cx])
					}
				}
			}
			var dst []float64
			for cy := 0; cy+16 <= g.CellsY; cy++ {
				for cx := 0; cx+8 <= g.CellsX; cx++ {
					want := windowDescriptor(legacy, cx, cy, norm == hog.NormL2)
					got, err := e.DescriptorInto(dst[:0], &g, cx, cy)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) || len(got) != e.DescriptorLen() {
						t.Fatalf("%s %v: window (%d,%d): len %d, assembly %d, DescriptorLen %d",
							name, norm, cx, cy, len(got), len(want), e.DescriptorLen())
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s %v: window (%d,%d) component %d = %v, assembly %v",
								name, norm, cx, cy, i, got[i], want[i])
						}
					}
					dst = got
				}
			}
		}
	}
}

// sumScorer scores a descriptor by a fixed alternating-sign sum, so
// every component reaches the score.
type sumScorer struct{}

func (sumScorer) Score(x []float64) float64 {
	var v float64
	for i, xi := range x {
		if i%3 == 0 {
			v -= xi
		} else {
			v += xi
		}
	}
	return v
}

// TestVoteRaceFullPrecisionConcurrent is the race-lane check for the
// full-precision VoteRace fallback to argmax voting: GridInto from two
// goroutines on separate grids, and DetectAll at two workers, must
// match serial output (and, under -race, report no data race on the
// shared extractor).
func TestVoteRaceFullPrecisionConcurrent(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	cfg := FullPrecision()
	cfg.Mode = VoteRace
	e := mustNew(t, cfg, hog.NormL2)
	rng := rand.New(rand.NewSource(3))
	imgs := make([]*imgproc.Image, 2)
	for i := range imgs {
		imgs[i] = imgproc.New(88, 152)
		for p := range imgs[i].Pix {
			imgs[i].Pix[p] = rng.Float64()
		}
	}

	want := make([]hog.Grid, len(imgs))
	for i, img := range imgs {
		e.GridInto(&want[i], img)
	}
	got := make([]hog.Grid, len(imgs))
	var wg sync.WaitGroup
	for i, img := range imgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.GridInto(&got[i], img)
		}()
	}
	wg.Wait()
	for i := range imgs {
		for k, v := range want[i].Data {
			if math.Float64bits(got[i].Data[k]) != math.Float64bits(v) {
				t.Fatalf("image %d: concurrent GridInto Data[%d] = %v, serial %v", i, k, got[i].Data[k], v)
			}
		}
	}

	dcfg := detect.DefaultConfig()
	dcfg.MaxLevels = 2
	dcfg.Threshold = -1e18
	det, err := detect.NewDetector(e, sumScorer{}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	serial := make([][]detect.Detection, len(imgs))
	for i, img := range imgs {
		serial[i] = det.Detect(img)
	}
	det.Config.Workers = 2
	if all := det.DetectAll(imgs); !reflect.DeepEqual(all, serial) {
		t.Fatal("DetectAll at 2 workers diverges from serial Detect")
	}
}
