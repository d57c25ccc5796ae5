package hog

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/imgproc"
)

// nanRuleGrid is the NaN rule written out: the image's gradient field
// with every gradient that has a NaN component set to (0, 0), which
// votes nothing under any voting mode, voted per pixel through vote
// into the pixel's cell, or through the spatial pass into the cells it
// splits each vote among.
func nanRuleGrid(e *Extractor, img *imgproc.Image) *Grid {
	grad := imgproc.ComputeGradient(img)
	for i := range grad.Ix {
		if math.IsNaN(grad.Ix[i]) || math.IsNaN(grad.Iy[i]) {
			grad.Ix[i], grad.Iy[i] = 0, 0
		}
	}
	cs := e.cfg.CellSize
	var g Grid
	g.Reset(img.W/cs, img.H/cs, e.cfg.NBins)
	if e.cfg.SpatialInterp {
		e.gridIntoSpatial(&g, grad)
		return &g
	}
	for j := 0; j < g.CellsY; j++ {
		for i := 0; i < g.CellsX; i++ {
			hist := g.Hist(i, j)
			for y := j * cs; y < (j+1)*cs; y++ {
				for x := i * cs; x < (i+1)*cs; x++ {
					mag, ang := grad.MagAngle(x, y)
					e.vote(hist, mag, ang)
				}
			}
		}
	}
	return &g
}

// TestReferenceNaNPixelsVoteNothing runs NaN pixels through the float
// HoG under every configuration oracleExtractors builds: the five
// norms, block stride 2, 3x3-cell blocks, spatial voting and count
// voting. NaN sits at the corners, on the borders, in adjacent pairs
// and through the interior, and fills one image. GridInto must equal
// nanRuleGrid bit for bit (a pixel whose gradient has a NaN component
// votes nothing), every window descriptor must be NaN-free, and the
// per-cell path (CellHistogram) must agree with the grid.
func TestReferenceNaNPixelsVoteNothing(t *testing.T) {
	nan := math.NaN()
	planted := noiseImage(101, 157, 3)
	for _, xy := range [][2]int{{0, 0}, {100, 0}, {0, 156}, {100, 156}, {50, 0}, {0, 70},
		{100, 80}, {40, 156}, {20, 30}, {21, 30}, {60, 90}, {60, 91}} {
		planted.Set(xy[0], xy[1], nan)
	}
	for i := 7; i < len(planted.Pix); i += 211 {
		planted.Pix[i] = nan
	}
	allNaN := imgproc.New(72, 136)
	allNaN.Fill(nan)
	images := map[string]*imgproc.Image{"planted": planted, "all-nan": allNaN}

	names, asms := sortedAssemblers(t)
	for _, name := range names {
		e, ok := asms[name].(*Extractor)
		if !ok {
			continue
		}
		for what, img := range images {
			label := fmt.Sprintf("%s/%s", name, what)
			var g Grid
			e.GridInto(&g, img)
			sameGrid(t, label, &g, nanRuleGrid(e, img))
			for i, v := range g.Data {
				if what == "all-nan" && v != 0 {
					t.Fatalf("%s: all-NaN image voted %v into Data[%d]", label, v, i)
				}
			}
			cfg := e.Config()
			for cy := 0; cy+cfg.CellsY() <= g.CellsY; cy++ {
				for cx := 0; cx+cfg.CellsX() <= g.CellsX; cx++ {
					d, err := e.DescriptorInto(nil, &g, cx, cy)
					if err != nil {
						t.Fatalf("%s: window (%d,%d): %v", label, cx, cy, err)
					}
					for i, v := range d {
						if math.IsNaN(v) {
							t.Fatalf("%s: window (%d,%d) component %d is NaN", label, cx, cy, i)
						}
					}
				}
			}
			if cfg.SpatialInterp {
				continue
			}
			cells := cellGrid(t, e, img)
			for cy := range cells {
				for cx, want := range cells[cy] {
					got := g.Hist(cx, cy)
					for b := range want {
						if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
							t.Fatalf("%s: cell (%d,%d) bin %d = %v, CellHistogram %v", label, cx, cy, b, got[b], want[b])
						}
					}
				}
			}
		}
	}
}
