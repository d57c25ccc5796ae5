package napprox

import (
	"math"
	"testing"

	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/stats"
)

// Rotating a ramp's gradient by one bin width must advance the argmax
// vote bin by exactly one — the circular covariance that makes the
// 18-direction comparison a faithful angle estimator.
func TestArgmaxRotationCovariance(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormNone)
	binWidth := 360.0 / 18
	prev := -1
	for k := 0; k < 18; k++ {
		deg := float64(k)*binWidth + CenterOffsetDeg
		h, err := e.CellHistogram(rampCell(deg, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		got := stats.ArgMax(h)
		if got != k {
			t.Errorf("ramp at %v deg: vote bin %d, want %d", deg, got, k)
		}
		if prev >= 0 && got != (prev+1)%18 {
			t.Errorf("bin did not advance by one: %d after %d", got, prev)
		}
		prev = got
	}
}

// Brightness offsets cancel in the gradient, so quantized NApprox
// histograms shift only by the offset's quantization residue.
func TestBrightnessOffsetStability(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormNone)
	cell := rampCell(40, 0.1)
	h0, err := e.CellHistogram(cell)
	if err != nil {
		t.Fatal(err)
	}
	shifted := cell.Clone()
	for i := range shifted.Pix {
		shifted.Pix[i] += 8.0 / 64 // exactly 8 spike counts, no clipping
	}
	h1, err := e.CellHistogram(shifted)
	if err != nil {
		t.Fatal(err)
	}
	for k := range h0 {
		if h0[k] != h1[k] {
			t.Fatalf("bin %d changed under representable offset: %v vs %v",
				k, h0[k], h1[k])
		}
	}
}

// Gradient polarity flip (negating contrast) must rotate votes by
// half a turn: bin k -> bin k+9.
func TestPolarityFlipRotatesHalfTurn(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormNone)
	cell := rampCell(40, 0.1)
	inverted := cell.Clone()
	for i := range inverted.Pix {
		inverted.Pix[i] = 1 - inverted.Pix[i]
	}
	h0, err := e.CellHistogram(cell)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := e.CellHistogram(inverted)
	if err != nil {
		t.Fatal(err)
	}
	b0, b1 := stats.ArgMax(h0), stats.ArgMax(h1)
	if (b0+9)%18 != b1 {
		t.Errorf("polarity flip: bin %d -> %d, want %d", b0, b1, (b0+9)%18)
	}
}

// The race model must never vote more than once per bin per pixel:
// each cell's histogram entries are bounded by the 64 interior pixels.
func TestRaceVoteBounds(t *testing.T) {
	cfg := TrueNorthConfig()
	cfg.Mode = VoteRace
	e := mustNew(t, cfg, hog.NormNone)
	for _, deg := range []float64{0, 33, 90, 211} {
		h, err := e.CellHistogram(rampCell(deg, 0.25))
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for k, v := range h {
			if v < 0 || v > 64 {
				t.Fatalf("bin %d out of bounds: %v", k, v)
			}
			total += v
		}
		// Same-tick ties can co-vote, but never more than a few bins.
		if total > 3*64 {
			t.Errorf("ramp %v deg: %v total votes, too many co-winners", deg, total)
		}
	}
}

// Full-precision argmax and the discrete race must agree on the peak
// bin for clean ramps (the race only blurs near-ties).
func TestRaceAgreesWithArgmaxOnRamps(t *testing.T) {
	argmax := mustNew(t, TrueNorthConfig(), hog.NormNone)
	raceCfg := TrueNorthConfig()
	raceCfg.Mode = VoteRace
	race := mustNew(t, raceCfg, hog.NormNone)
	agree := 0
	const trials = 24
	for i := 0; i < trials; i++ {
		deg := float64(i) * 15
		c := rampCell(deg, 0.12)
		h0, err := argmax.CellHistogram(c)
		if err != nil {
			t.Fatal(err)
		}
		h1, err := race.CellHistogram(c)
		if err != nil {
			t.Fatal(err)
		}
		d := (stats.ArgMax(h0) - stats.ArgMax(h1) + 18) % 18
		if d == 0 || d == 1 || d == 17 {
			agree++
		}
	}
	if agree < trials-2 {
		t.Errorf("race/argmax peak agreement %d/%d", agree, trials)
	}
}

// Quantized magnitudes scale linearly: doubling contrast doubles the
// projections, leaving the argmax unchanged.
func TestContrastScalePreservesArgmax(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormNone)
	// Angles at bin centers: near bin boundaries, quantization of weak
	// gradients legitimately flips the estimate to the adjacent bin.
	for _, deg := range []float64{21.3, 81.3, 141.3, 301.3} {
		weak, err := e.CellHistogram(rampCell(deg, 0.06))
		if err != nil {
			t.Fatal(err)
		}
		strong, err := e.CellHistogram(rampCell(deg, 0.18))
		if err != nil {
			t.Fatal(err)
		}
		var weakMass float64
		for _, v := range weak {
			weakMass += v
		}
		if weakMass == 0 {
			continue // below vote threshold
		}
		if stats.ArgMax(weak) != stats.ArgMax(strong) {
			t.Errorf("ramp %v deg: argmax moved with contrast: %d vs %d",
				deg, stats.ArgMax(weak), stats.ArgMax(strong))
		}
	}
}

// GridInto must agree with per-cell CellHistogram when the cell's
// context matches (interior cells of a tiled image).
func TestCellGridMatchesCellHistogram(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormNone)
	img := rampCell(60, 0.08)
	big := img.Clone()
	_ = big
	// Build a 24x24 image, check the center cell.
	wide := rampCellSized(60, 0.05, 24)
	var g hog.Grid
	e.GridInto(&g, wide)
	center := g.Hist(1, 1)
	sub := wide.SubImage(7, 7, 10, 10)
	direct, err := e.CellHistogram(sub)
	if err != nil {
		t.Fatal(err)
	}
	for k := range center {
		if math.Abs(center[k]-direct[k]) > 1e-9 {
			t.Fatalf("bin %d: grid %v vs direct %v", k, center[k], direct[k])
		}
	}
}

// rampCellSized is rampCell for an arbitrary square size.
func rampCellSized(angleDeg, step float64, side int) *imgproc.Image {
	m := imgproc.New(side, side)
	rad := angleDeg * math.Pi / 180
	dx, dy := math.Cos(rad), math.Sin(rad)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			m.Set(x, y, 0.5+step*(dx*float64(x)-dy*float64(y))/2)
		}
	}
	return m
}
