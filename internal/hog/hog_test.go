package hog

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/imgproc"
	"repro/internal/stats"
)

func mustExtractor(t *testing.T, cfg Config) *Extractor {
	t.Helper()
	e, err := NewExtractor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	good := Reference()
	if err := good.Validate(); err != nil {
		t.Fatalf("Reference invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.CellSize = 0 },
		func(c *Config) { c.NBins = 0 },
		func(c *Config) { c.BlockCells = 0 },
		func(c *Config) { c.BlockStride = 0 },
		func(c *Config) { c.WindowW = 63 },
		func(c *Config) { c.WindowW = 8; c.WindowH = 8; c.BlockCells = 2 },
	}
	for i, mut := range bad {
		c := Reference()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDescriptorLengthsMatchPaper(t *testing.T) {
	// 9-bin reference: 7x15 blocks x 4 cells x 9 bins = 3780.
	r := Reference()
	if got := r.DescriptorLen(); got != 3780 {
		t.Errorf("reference descriptor len = %d, want 3780", got)
	}
	// 18-bin NApprox style: 7x15x18x4 = 7560 (paper Sec. 4).
	n := NApproxStyle()
	if got := n.DescriptorLen(); got != 7560 {
		t.Errorf("napprox-style descriptor len = %d, want 7560", got)
	}
	if n.BlocksX() != 7 || n.BlocksY() != 15 {
		t.Errorf("blocks = %dx%d, want 7x15", n.BlocksX(), n.BlocksY())
	}
	if n.CellsX() != 8 || n.CellsY() != 16 {
		t.Errorf("cells = %dx%d, want 8x16", n.CellsX(), n.CellsY())
	}
}

func TestVotingModeStrings(t *testing.T) {
	if VoteMagnitudeInterp.String() == "" || VoteCount.String() == "" ||
		NormL2.String() != "l2" || NormNone.String() != "none" {
		t.Error("stringers broken")
	}
	if VotingMode(99).String() == "" || NormMode(99).String() == "" {
		t.Error("unknown values should still print")
	}
}

// rampWindow builds a 64x128 window with a pure horizontal ramp, whose
// gradient is everywhere horizontal (angle 0).
func rampWindow() *imgproc.Image {
	m := imgproc.New(64, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 64; x++ {
			m.Set(x, y, float64(x)/64)
		}
	}
	return m
}

func TestCellGridHorizontalRamp(t *testing.T) {
	e := mustExtractor(t, Reference())
	var g Grid
	e.GridInto(&g, rampWindow())
	if g.CellsY != 16 || g.CellsX != 8 {
		t.Fatalf("grid dims %dx%d", g.CellsX, g.CellsY)
	}
	// All energy should be in bin 0 (0 degrees) for interior cells.
	h := g.Hist(4, 8)
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	if sum == 0 {
		t.Fatal("empty histogram on ramp")
	}
	if h[0]/sum < 0.99 {
		t.Errorf("horizontal ramp: bin0 fraction = %v, hist=%v", h[0]/sum, h)
	}
}

func TestBinOfSignedVsUnsigned(t *testing.T) {
	u := mustExtractor(t, Reference())    // 9 bins, unsigned
	s := mustExtractor(t, NApproxStyle()) // 18 bins, signed
	// 200 degrees: unsigned folds to 20 -> bin 1; signed -> bin 10.
	ang := 200 * math.Pi / 180
	if ang > math.Pi {
		ang -= 2 * math.Pi // atan2 convention
	}
	if got := int(u.binOf(ang)); got != 1 {
		t.Errorf("unsigned bin of 200deg = %d, want 1", got)
	}
	if got := int(s.binOf(ang)); got != 10 {
		t.Errorf("signed bin of 200deg = %d, want 10", got)
	}
}

func TestInterpolationSplitsVote(t *testing.T) {
	cfg := Reference()
	e := mustExtractor(t, cfg)
	hist := make([]float64, cfg.NBins)
	// Angle exactly between bin 0 (center 10 deg... bins are [0,20),
	// [20,40)...). binOf(30deg)=1.5 -> split between bins 1 and 2.
	e.vote(hist, 1.0, 30*math.Pi/180)
	if math.Abs(hist[1]-0.5) > 1e-9 || math.Abs(hist[2]-0.5) > 1e-9 {
		t.Errorf("interp vote: %v", hist)
	}
	var total float64
	for _, v := range hist {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("vote mass not conserved: %v", total)
	}
}

func TestInterpolationWrapsAround(t *testing.T) {
	cfg := Reference()
	e := mustExtractor(t, cfg)
	hist := make([]float64, cfg.NBins)
	// 175 deg: fb = 8.75 -> split bins 8 and 0 (wrap).
	e.vote(hist, 1.0, 175*math.Pi/180)
	if hist[8] <= 0 || hist[0] <= 0 {
		t.Errorf("wraparound vote: %v", hist)
	}
}

func TestCountVotingThreshold(t *testing.T) {
	cfg := NApproxStyle()
	cfg.CountThreshold = 0.5
	e := mustExtractor(t, cfg)
	hist := make([]float64, cfg.NBins)
	e.vote(hist, 0.4, 0) // below threshold
	e.vote(hist, 0.6, 0) // above
	e.vote(hist, 0.6, 0)
	if hist[0] != 2 {
		t.Errorf("count voting hist[0] = %v, want 2", hist[0])
	}
}

func TestCellHistogramBorder(t *testing.T) {
	e := mustExtractor(t, Reference())
	cell := imgproc.New(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			cell.Set(x, y, float64(x)/10)
		}
	}
	h, err := e.CellHistogram(cell)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	// 64 interior pixels each vote 2*0.1 magnitude into bin 0.
	if math.Abs(sum-64*0.2) > 1e-9 {
		t.Errorf("cell histogram mass = %v, want %v", sum, 64*0.2)
	}
	if _, err := e.CellHistogram(imgproc.New(8, 8)); err == nil {
		t.Error("wrong cell size should error")
	}
}

func TestDescriptorShapeAndNorm(t *testing.T) {
	e := mustExtractor(t, Reference())
	w := rampWindow()
	d, err := descriptor(e, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3780 {
		t.Fatalf("descriptor len = %d", len(d))
	}
	// Every block is L2-normalized: check the first block's norm.
	blockLen := 4 * 9
	var n float64
	for _, v := range d[:blockLen] {
		n += v * v
	}
	if math.Abs(math.Sqrt(n)-1) > 1e-9 {
		t.Errorf("block norm = %v, want 1", math.Sqrt(n))
	}
	if _, err := descriptor(e, imgproc.New(32, 32)); err == nil {
		t.Error("image smaller than a window should error")
	}
}

func TestDescriptorNormNoneKeepsMagnitudes(t *testing.T) {
	cfg := Reference()
	cfg.Norm = NormNone
	e := mustExtractor(t, cfg)
	d, err := descriptor(e, rampWindow())
	if err != nil {
		t.Fatal(err)
	}
	var maxv float64
	for _, v := range d {
		if v > maxv {
			maxv = v
		}
	}
	if maxv <= 1 {
		t.Errorf("unnormalized descriptor should exceed 1, max=%v", maxv)
	}
}

func TestDescriptorAtMatchesDescriptor(t *testing.T) {
	cfg := Reference()
	e := mustExtractor(t, cfg)
	// Build a 128x192 image with structured content.
	img := imgproc.New(128, 192)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			img.Set(x, y, 0.5+0.5*math.Sin(float64(x)*0.3)*math.Cos(float64(y)*0.2))
		}
	}
	var g Grid
	e.GridInto(&g, img)
	// Window at cell (2, 3) -> pixels (16, 24).
	got, err := e.DescriptorInto(nil, &g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Interior gradients are identical; the window-local computation
	// differs only at the window border (replicate padding), so compare
	// correlation rather than exact equality.
	sub := img.SubImage(16, 24, 64, 128)
	want, err := descriptor(e, sub)
	if err != nil {
		t.Fatal(err)
	}
	r, err := stats.Pearson(got, want)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.98 {
		t.Errorf("offset-window correlation = %v, want > 0.98", r)
	}
	if _, err := e.DescriptorInto(nil, &g, 50, 50); err == nil {
		t.Error("out-of-grid window should error")
	}
}

func TestRotationShiftsHistogram(t *testing.T) {
	// A diagonal ramp's energy should land in the 45-degree bin.
	cfg := Reference()
	cfg.Norm = NormNone
	e := mustExtractor(t, cfg)
	m := imgproc.New(64, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 64; x++ {
			// Increasing in +x and upward (-y): gradient at 45 deg.
			m.Set(x, y, (float64(x)-float64(y))/192)
		}
	}
	var g Grid
	e.GridInto(&g, m)
	h := g.Hist(4, 8)
	best := stats.ArgMax(h)
	if best != 2 { // 45 deg / 20 deg per bin = bin 2
		t.Errorf("diagonal ramp peak bin = %d (hist %v), want 2", best, h)
	}
}

func TestFPGAExtractorMatchesFloatReference(t *testing.T) {
	fx, err := NewFPGAExtractor(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fx.Config()
	ref := mustExtractor(t, cfg) // same config, float datapath
	img := imgproc.New(64, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 64; x++ {
			img.Set(x, y, 0.5+0.4*math.Sin(float64(x)*0.7+float64(y)*0.3))
		}
	}
	df, err := descriptor(fx, img)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := descriptor(ref, img)
	if err != nil {
		t.Fatal(err)
	}
	r, err := stats.Pearson(df, dr)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-point quantization should cost little correlation.
	if r < 0.98 {
		t.Errorf("FPGA vs float correlation = %v, want > 0.98", r)
	}
}

func TestFPGAExtractorErrors(t *testing.T) {
	if _, err := NewFPGAExtractor(63, 128); err == nil {
		t.Error("bad window should error")
	}
	fx, _ := NewFPGAExtractor(64, 128)
	if _, err := descriptor(fx, imgproc.New(10, 10)); err == nil {
		t.Error("image smaller than a window should error")
	}
}

func TestHistogramMassConservedProperty(t *testing.T) {
	cfg := Reference()
	cfg.Norm = NormNone
	e := mustExtractor(t, cfg)
	f := func(seed uint16) bool {
		m := imgproc.New(16, 16)
		s := uint64(seed) + 1
		for i := range m.Pix {
			s = s*6364136223846793005 + 1442695040888963407
			m.Pix[i] = float64(s>>33%256) / 255
		}
		var grid Grid
		e.GridInto(&grid, m)
		g := imgproc.ComputeGradient(m)
		var histMass, gradMass float64
		for _, v := range grid.Data {
			histMass += v
		}
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				mag, _ := g.MagAngle(x, y)
				gradMass += mag
			}
		}
		return math.Abs(histMass-gradMass) < 1e-6*math.Max(1, gradMass)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkReferenceDescriptor(b *testing.B) {
	e, _ := NewExtractor(Reference())
	w := rampWindow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = descriptor(e, w)
	}
}

func BenchmarkFPGADescriptor(b *testing.B) {
	e, _ := NewFPGAExtractor(64, 128)
	w := rampWindow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = descriptor(e, w)
	}
}
