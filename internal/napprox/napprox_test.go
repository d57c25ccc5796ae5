package napprox

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/stats"
)

func mustNew(t *testing.T, cfg Config, norm hog.NormMode) *Extractor {
	t.Helper()
	e, err := New(cfg, norm)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// descriptor returns the descriptor of the window at cell (0, 0) of
// img's grid — the whole image when img is window-sized.
func descriptor(e *Extractor, img *imgproc.Image) ([]float64, error) {
	var g hog.Grid
	e.GridInto(&g, img)
	return e.DescriptorInto(nil, &g, 0, 0)
}

func TestConfigValidate(t *testing.T) {
	if err := TrueNorthConfig().Validate(); err != nil {
		t.Errorf("TrueNorthConfig invalid: %v", err)
	}
	if err := FullPrecision().Validate(); err != nil {
		t.Errorf("FullPrecision invalid: %v", err)
	}
	bad := []Config{
		{CellSize: 0, NBins: 18},
		{CellSize: 8, NBins: 0},
		{CellSize: 8, NBins: 18, SpikeWindow: -1},
		{CellSize: 8, NBins: 18, WeightScale: -1},
		{CellSize: 8, NBins: 18, VoteThreshold: -1},
		{CellSize: 8, NBins: 18, Mode: VoteMode(9)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
	if VoteArgmax.String() != "argmax" || VoteThreshold.String() != "threshold" {
		t.Error("vote mode stringers")
	}
	if VoteMode(7).String() == "" {
		t.Error("unknown mode should print")
	}
}

func TestDirectionWeightsQuantized(t *testing.T) {
	cfg := TrueNorthConfig()
	a, b := cfg.DirectionWeights()
	if len(a) != 18 || len(b) != 18 {
		t.Fatal("weight length")
	}
	// Bin 0 points near 0 degrees: (32, ~1) at scale 32 with the small
	// tie-breaking center offset.
	if a[0] != 32 || math.Abs(b[0]-1) > 1 {
		t.Errorf("bin 0 weights (%v, %v), want (32, ~1)", a[0], b[0])
	}
	// Bin 9 points near 180 degrees.
	if a[9] != -32 {
		t.Errorf("bin 9 weights (%v, %v), want (-32, ~-1)", a[9], b[9])
	}
	// All integers.
	for k := range a {
		if a[k] != math.Trunc(a[k]) || b[k] != math.Trunc(b[k]) {
			t.Errorf("bin %d weights not integral: (%v, %v)", k, a[k], b[k])
		}
	}
}

func TestDirectionWeightsExact(t *testing.T) {
	cfg := FullPrecision()
	a, b := cfg.DirectionWeights()
	// Bin 0 points at CenterOffsetDeg; the vector is unit length.
	off := CenterOffsetDeg * math.Pi / 180
	if math.Abs(a[0]-math.Cos(off)) > 1e-12 || math.Abs(b[0]-math.Sin(off)) > 1e-12 {
		t.Errorf("fp bin 0 = (%v, %v)", a[0], b[0])
	}
	if math.Abs(math.Hypot(a[5], b[5])-1) > 1e-12 {
		t.Errorf("fp weights not unit norm: (%v, %v)", a[5], b[5])
	}
}

// rampCell builds a 10x10 cell whose gradient points at the given
// angle (degrees, 0 = +x, 90 = up) with the given per-pixel step.
func rampCell(angleDeg, step float64) *imgproc.Image {
	m := imgproc.New(10, 10)
	rad := angleDeg * math.Pi / 180
	dx, dy := math.Cos(rad), math.Sin(rad)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			// Image y grows downward, gradient "up" = decreasing y.
			v := 0.5 + step*(dx*float64(x)-dy*float64(y))/2
			m.Set(x, y, v)
		}
	}
	return m
}

// nearestBin returns the orientation bin whose center (k*20 deg +
// CenterOffsetDeg) is closest to deg.
func nearestBin(deg float64) int {
	k := int(math.Round((deg - CenterOffsetDeg) / 20))
	return ((k % 18) + 18) % 18
}

func TestCellHistogramRampAngles(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormNone)
	for _, deg := range []float64{0, 40, 90, 180, 270, 320} {
		h, err := e.CellHistogram(rampCell(deg, 0.08))
		if err != nil {
			t.Fatal(err)
		}
		want := nearestBin(deg)
		got := stats.ArgMax(h)
		if got != want {
			t.Errorf("ramp %v deg: peak bin %d (hist %v), want %d", deg, got, h, want)
		}
		// All 64 interior pixels vote when the gradient is strong.
		var sum float64
		for _, v := range h {
			sum += v
		}
		if sum != 64 {
			t.Errorf("ramp %v deg: total votes %v, want 64", deg, sum)
		}
	}
}

func TestFlatCellNoVotes(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormNone)
	cell := imgproc.New(10, 10)
	cell.Fill(0.5)
	h, err := e.CellHistogram(cell)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range h {
		if v != 0 {
			t.Fatalf("flat cell voted: %v", h)
		}
	}
}

func TestVoteThresholdSuppressesWeakGradients(t *testing.T) {
	// Full precision exposes the continuous significance gate: a ramp
	// whose per-gradient magnitude stays below the threshold must not
	// vote at all.
	e := mustNew(t, FullPrecision(), hog.NormNone)
	weak, err := e.CellHistogram(rampCell(0, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range weak {
		sum += v
	}
	if sum != 0 {
		t.Errorf("sub-threshold ramp voted %v times", sum)
	}
	// Just above the gate, it votes.
	strong, err := e.CellHistogram(rampCell(0, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	sum = 0
	for _, v := range strong {
		sum += v
	}
	if sum == 0 {
		t.Error("supra-threshold ramp did not vote")
	}
}

func TestCellHistogramSizeErrors(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormNone)
	if _, err := e.CellHistogram(imgproc.New(8, 8)); err == nil {
		t.Error("8x8 cell should error")
	}
}

func TestThresholdModeSpreadsVotes(t *testing.T) {
	cfg := TrueNorthConfig()
	cfg.Mode = VoteThreshold
	e := mustNew(t, cfg, hog.NormNone)
	h, err := e.CellHistogram(rampCell(0, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	// A strong gradient crosses threshold in several adjacent bins.
	nonzero := 0
	for _, v := range h {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero < 2 {
		t.Errorf("threshold mode voted in %d bins, expected spread: %v", nonzero, h)
	}
	// Peak still at the gradient direction.
	if got := stats.ArgMax(h); got != 0 {
		t.Errorf("threshold mode peak bin %d, want 0: %v", got, h)
	}
}

func TestFullPrecisionVsQuantizedCorrelation(t *testing.T) {
	// The paper's Fig. 4 premise: NApprox(fp) and NApprox(64-spike)
	// produce closely matching features.
	fp := mustNew(t, FullPrecision(), hog.NormNone)
	tn := mustNew(t, TrueNorthConfig(), hog.NormNone)
	rng := rand.New(rand.NewSource(11))
	var all1, all2 []float64
	for i := 0; i < 50; i++ {
		cell := imgproc.New(10, 10)
		base := rng.Float64() * 0.5
		for j := range cell.Pix {
			cell.Pix[j] = base + rng.Float64()*0.5
		}
		h1, err := fp.CellHistogram(cell)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := tn.CellHistogram(cell)
		if err != nil {
			t.Fatal(err)
		}
		all1 = append(all1, h1...)
		all2 = append(all2, h2...)
	}
	r, err := stats.Pearson(all1, all2)
	if err != nil {
		t.Fatal(err)
	}
	// Cell-level histograms diverge near bin boundaries under weight
	// rounding; the Fig. 4 claim is about detector-level curves, so a
	// strong (not near-perfect) correlation is the right expectation.
	if r < 0.75 {
		t.Errorf("fp vs quantized correlation = %v, want > 0.75", r)
	}
}

func TestDescriptorShape(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormL2)
	if e.DescriptorLen() != 7560 {
		t.Errorf("descriptor len = %d, want 7560 (paper Sec. 4)", e.DescriptorLen())
	}
	win := imgproc.New(64, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 64; x++ {
			win.Set(x, y, 0.5+0.3*math.Sin(float64(x+y)*0.4))
		}
	}
	d, err := descriptor(e, win)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 7560 {
		t.Fatalf("descriptor length %d", len(d))
	}
	if _, err := descriptor(e, imgproc.New(10, 10)); err == nil {
		t.Error("image smaller than a window should error")
	}
}

func TestDescriptorAtUsesGrid(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormNone)
	img := imgproc.New(128, 192)
	for i := range img.Pix {
		img.Pix[i] = float64(i%97) / 97
	}
	var g hog.Grid
	e.GridInto(&g, img)
	d, err := e.DescriptorInto(nil, &g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 7560 {
		t.Errorf("descriptor len %d", len(d))
	}
}

func TestQuantizeClamps(t *testing.T) {
	e := mustNew(t, TrueNorthConfig(), hog.NormNone)
	if got := e.quantize(-0.5); got != 0 {
		t.Errorf("quantize(-0.5) = %v", got)
	}
	if got := e.quantize(2); got != 64 {
		t.Errorf("quantize(2) = %v", got)
	}
	if got := e.quantize(0.5); got != 32 {
		t.Errorf("quantize(0.5) = %v", got)
	}
}

func BenchmarkCellHistogramQuantized(b *testing.B) {
	e, _ := New(TrueNorthConfig(), hog.NormNone)
	cell := rampCell(45, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e.CellHistogram(cell)
	}
}

func BenchmarkWindowDescriptor(b *testing.B) {
	e, _ := New(TrueNorthConfig(), hog.NormL2)
	win := imgproc.New(64, 128)
	for i := range win.Pix {
		win.Pix[i] = float64(i%251) / 251
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = descriptor(e, win)
	}
}
