package napprox

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hog"
	"repro/internal/imgproc"
)

// gridIntoLegacyCells is the historical per-cell GridInto: every cell
// accumulated by voteCell, re-quantizing each pixel per neighbor role.
// The blocked argmax kernel (quantize-once plane + LUT or inline
// projection scan) must reproduce it bit-for-bit.
func gridIntoLegacyCells(e *Extractor, g *hog.Grid, img *imgproc.Image) {
	cs := e.cfg.CellSize
	cx, cy := img.W/cs, img.H/cs
	g.Reset(cx, cy, e.cfg.NBins)
	for j := 0; j < cy; j++ {
		for i := 0; i < cx; i++ {
			e.voteCell(img, i*cs, j*cs, g.Hist(i, j))
		}
	}
}

// TestArgmaxKernelMatchesVoteCell is the blocked-kernel differential
// across both argmax flavors — quantized (LUT-driven) and full
// precision (inline projection scan) — plus the race mode that stays
// on the per-cell path, over odd image sizes and fuzzed pixels.
// Each size also runs with NaN pixels planted at the corners and
// through the interior, and as an all-NaN image: a gradient with a NaN
// component votes nothing on either path.
func TestArgmaxKernelMatchesVoteCell(t *testing.T) {
	tn := TrueNorthConfig()
	race := tn
	race.Mode = VoteRace
	smallWindow := tn
	smallWindow.SpikeWindow = 4
	cfgs := map[string]Config{
		"truenorth-lut": tn,
		"fp-inline":     FullPrecision(),
		"race":          race,
		"small-window":  smallWindow,
	}
	rng := rand.New(rand.NewSource(11))
	sizes := [][2]int{{96, 160}, {17, 23}, {8, 8}, {7, 7}}
	for name, cfg := range cfgs {
		e, err := New(cfg, hog.NormL2)
		if err != nil {
			t.Fatal(err)
		}
		if name == "truenorth-lut" && e.lut == nil {
			t.Fatal("quantized argmax config did not build a LUT")
		}
		if name == "fp-inline" && e.lut != nil {
			t.Fatal("full-precision config built a LUT; it must scan inline")
		}
		for _, wh := range sizes {
			img := imgproc.New(wh[0], wh[1])
			for i := range img.Pix {
				img.Pix[i] = rng.Float64()
			}
			nan := imgproc.New(wh[0], wh[1])
			copy(nan.Pix, img.Pix)
			for i := 0; i < len(nan.Pix); i += 13 {
				nan.Pix[i] = math.NaN()
			}
			nan.Set(wh[0]-1, 0, math.NaN())
			nan.Set(0, wh[1]-1, math.NaN())
			nan.Set(wh[0]-1, wh[1]-1, math.NaN())
			allNaN := imgproc.New(wh[0], wh[1])
			allNaN.Fill(math.NaN())
			for _, im := range []struct {
				what string
				img  *imgproc.Image
			}{{"random", img}, {"nan-planted", nan}, {"all-nan", allNaN}} {
				var want, got hog.Grid
				gridIntoLegacyCells(e, &want, im.img)
				e.GridInto(&got, im.img)
				if got.CellsX != want.CellsX || got.CellsY != want.CellsY || got.Bins != want.Bins {
					t.Fatalf("%s %s %dx%d: grid %dx%dx%d, want %dx%dx%d", name, im.what, wh[0], wh[1],
						got.CellsX, got.CellsY, got.Bins, want.CellsX, want.CellsY, want.Bins)
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s %s %dx%d: Data[%d] = %v, legacy %v",
							name, im.what, wh[0], wh[1], i, got.Data[i], want.Data[i])
					}
					if im.what == "all-nan" && want.Data[i] != 0 {
						t.Fatalf("%s %dx%d: all-NaN image voted %v into Data[%d]", name, wh[0], wh[1], want.Data[i], i)
					}
				}
			}
		}
	}
}

// TestCellHistogramIntoMatches checks the allocation-free variant and
// its validation.
func TestCellHistogramIntoMatches(t *testing.T) {
	e, err := New(TrueNorthConfig(), hog.NormL2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	cell := imgproc.New(10, 10)
	for i := range cell.Pix {
		cell.Pix[i] = rng.Float64()
	}
	want, err := e.CellHistogram(cell)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, e.cfg.NBins)
	for i := range got {
		got[i] = math.NaN()
	}
	if err := e.CellHistogramInto(got, cell); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("bin %d: %v vs %v", i, got[i], want[i])
		}
	}
	if err := e.CellHistogramInto(got[:2], cell); err == nil {
		t.Fatal("short hist accepted")
	}
	if err := e.CellHistogramInto(got, imgproc.New(3, 3)); err == nil {
		t.Fatal("wrong cell size accepted")
	}
}
