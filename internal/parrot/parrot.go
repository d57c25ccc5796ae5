// Package parrot implements the paper's Parrot-HoG (Sec. 3.2): a
// small Eedn network trained to mimic the HoG feature extractor via a
// "Parrot transformation". Because HoG is a well-defined function of
// the input pixels, labeled training data is generated automatically
// (Fig. 3): random oriented patterns whose ground-truth cell histogram
// is computed by the reference extractor, with varying ratios of ones
// and zeros so the network learns offset invariance.
//
// The trained network maps a (CellSize+2)^2 pixel cell to NBins
// confidences proportional to the HoG histogram bins; confidences are
// produced per coding tick, so input precision is a free parameter
// from 32-spike stochastic coding down to 1-spike (Sec. 5.2, Fig. 6).
package parrot

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/napprox"
	"repro/internal/obs"
	"repro/internal/stats"
)

// CellSide is the parrot input patch side: the 8x8 cell plus its
// one-pixel gradient border.
const CellSide = 10

// NBins is the histogram length the parrot emits.
const NBins = 18

// Sample is one auto-generated training example.
type Sample struct {
	// Pixels is the flattened CellSide^2 input patch in [0, 1].
	Pixels []float64
	// Target is the reference HoG histogram normalized to [0, 1]
	// (votes / 64), used to evaluate mimicry fidelity.
	Target []float64
	// Label is the orientation class the pattern was generated at
	// (the bin nearest its angle), the classification target: "the
	// neurons of a particular class output the confidence that the
	// input data belongs to the class" (Sec. 3.2).
	Label int
}

// reference returns the extractor whose behaviour the parrot learns:
// the full-precision NApprox HoG (18-bin count voting).
func reference() (*napprox.Extractor, error) {
	return napprox.New(napprox.FullPrecision(), hog.NormNone)
}

// GenerateSamples produces n labeled samples: oriented step edges
// (with random offsets — "different ratio of 1's and 0's so the
// feature extractor can learn to deal with samples with offsets") and
// linear ramps, at angles jittered within each orientation class.
// Deterministic per seed. A count of 0 yields no samples, and a
// negative count an error.
func GenerateSamples(n int, seed int64) ([]Sample, error) {
	if n < 0 {
		return nil, fmt.Errorf("parrot: %d samples", n)
	}
	ref, err := reference()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	binWidth := 2 * math.Pi / NBins
	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		cell := imgproc.New(CellSide, CellSide)
		label := rng.Intn(NBins)
		jitter := (rng.Float64() - 0.5) * binWidth * 0.8
		theta := float64(label)*binWidth + napprox.CenterOffsetDeg*math.Pi/180 + jitter
		// Gradient direction components; image y grows downward, so
		// "up" along theta means subtracting the y term.
		dx, dy := math.Cos(theta), math.Sin(theta)
		cxf := float64(CellSide-1) / 2
		proj := func(x, y int) float64 {
			return (float64(x)-cxf)*dx - (float64(y)-cxf)*dy
		}
		lo := rng.Float64() * 0.45
		hi := 0.55 + rng.Float64()*0.45
		if i%2 == 0 { // step edge with random offset
			off := (rng.Float64()*2 - 1) * 3
			for y := 0; y < CellSide; y++ {
				for x := 0; x < CellSide; x++ {
					if proj(x, y) > off {
						cell.Set(x, y, hi)
					} else {
						cell.Set(x, y, lo)
					}
				}
			}
		} else { // linear ramp
			slope := 0.04 + rng.Float64()*0.1
			base := rng.Float64() * 0.3
			for y := 0; y < CellSide; y++ {
				for x := 0; x < CellSide; x++ {
					cell.Set(x, y, base+slope*(proj(x, y)+cxf*2))
				}
			}
		}
		cell.Clamp01()
		hist, err := ref.CellHistogram(cell)
		if err != nil {
			return nil, err
		}
		target := make([]float64, NBins)
		for k, v := range hist {
			target[k] = v / 64
		}
		samples = append(samples, Sample{
			Pixels: append([]float64(nil), cell.Pix...),
			Target: target,
			Label:  label,
		})
	}
	return samples, nil
}

// TrainOptions controls parrot training.
type TrainOptions struct {
	Samples int
	Seed    int64
	// Hidden is the width of the threshold layer (the paper's 8-core
	// budget corresponds to roughly 256; 512 trades cores for
	// accuracy).
	Hidden int
	Train  eedn.TrainConfig
}

// DefaultTrainOptions returns the settings used in the experiments.
func DefaultTrainOptions() TrainOptions {
	tc := eedn.DefaultTrainConfig()
	tc.Epochs = 80
	tc.LR = 0.05
	tc.Loss = eedn.LossHinge
	return TrainOptions{Samples: 8000, Seed: 1, Hidden: 512, Train: tc}
}

// Extractor is a trained parrot feature extractor. It satisfies the
// detect.Extractor interface, producing per-cell confidence histograms
// through the network at a configurable input spike precision.
type Extractor struct {
	Net *eedn.Network
	// Window is the input coding precision in spikes per value; 0
	// evaluates the network once on the raw values (the training-time
	// representation, an upper bound on fidelity).
	Window int
	// Stochastic selects Bernoulli input coding (the paper's stochastic
	// representation); deterministic thermometer coding otherwise.
	Stochastic bool
	// Rng drives stochastic coding; required when Stochastic.
	Rng *rand.Rand

	asm *hog.Extractor
}

// Train generates samples and fits the 2-layer parrot network as an
// orientation-class classifier (one-vs-all hinge on +-1 targets),
// returning the extractor (full-precision window by default) and the
// final training loss.
func Train(opt TrainOptions) (*Extractor, float64, error) {
	if opt.Samples <= 0 {
		return nil, 0, fmt.Errorf("parrot: %d samples", opt.Samples)
	}
	if opt.Hidden <= 0 {
		opt.Hidden = 512
	}
	samples, err := GenerateSamples(opt.Samples, opt.Seed)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	net, err := eedn.NewParrotNet(NBins, opt.Hidden, rng)
	if err != nil {
		return nil, 0, err
	}
	xs := make([][]float64, len(samples))
	ys := make([][]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.Pixels
		t := make([]float64, NBins)
		for k := range t {
			t[k] = -1
		}
		t[s.Label] = 1
		ys[i] = t
	}
	opt.Train.Loss = eedn.LossHinge
	if obs.Enabled() {
		// Track mimicry fidelity as it develops: each epoch, measure
		// the HoG-correlation on a fixed subsample through a probe
		// extractor sharing the live network weights. Only runs with
		// telemetry on — it adds a few hundred forward passes per
		// epoch.
		probeN := len(samples)
		if probeN > 256 {
			probeN = 256
		}
		probeSamples := samples[:probeN]
		if probe, perr := NewExtractor(net, 0, false, nil); perr == nil {
			inner := opt.Train.Verbose
			opt.Train.Verbose = func(epoch int, epochLoss float64) {
				if corr, cerr := MimicryCorrelation(probe, probeSamples); cerr == nil {
					obs.SeriesM("parrot.mimicry_corr").Append(float64(epoch), corr)
				}
				obs.SeriesM("parrot.epoch_loss").Append(float64(epoch), epochLoss)
				if inner != nil {
					inner(epoch, epochLoss)
				}
			}
		}
	}
	var trainStart time.Time
	if obs.Enabled() {
		trainStart = time.Now()
	}
	loss, err := net.Train(xs, ys, opt.Train)
	if err != nil {
		return nil, 0, err
	}
	if obs.Enabled() {
		obs.BucketHistogramM("parrot.train_ms", obs.LatencyMSBuckets).Observe(float64(time.Since(trainStart).Microseconds()) / 1000)
	}
	ex, err := NewExtractor(net, 0, false, nil)
	if err != nil {
		return nil, 0, err
	}
	return ex, loss, nil
}

// NewExtractor wraps a trained parrot network. The network must be a
// stack of eedn.Dense layers, which the inference kernel runs.
func NewExtractor(net *eedn.Network, window int, stochastic bool, rng *rand.Rand) (*Extractor, error) {
	if net == nil {
		return nil, fmt.Errorf("parrot: nil network")
	}
	if net.InDim() != CellSide*CellSide || net.OutDim() != NBins {
		return nil, fmt.Errorf("parrot: network is %dx%d, want %dx%d",
			net.InDim(), net.OutDim(), CellSide*CellSide, NBins)
	}
	if err := net.CheckDense(); err != nil {
		return nil, fmt.Errorf("parrot: %w", err)
	}
	if stochastic && rng == nil {
		return nil, fmt.Errorf("parrot: stochastic coding needs an rng")
	}
	asmCfg := hog.Config{
		CellSize: 8, NBins: NBins, Signed: true,
		Voting: hog.VoteCount, Norm: hog.NormNone,
		BlockCells: 2, BlockStride: 1,
		WindowW: 64, WindowH: 128,
	}
	asm, err := hog.NewExtractor(asmCfg)
	if err != nil {
		return nil, err
	}
	return &Extractor{Net: net, Window: window, Stochastic: stochastic, Rng: rng, asm: asm}, nil
}

// SetNorm selects the block normalization used for window descriptors.
func (e *Extractor) SetNorm(norm hog.NormMode) error {
	cfg := e.asm.Config()
	cfg.Norm = norm
	asm, err := hog.NewExtractor(cfg)
	if err != nil {
		return err
	}
	e.asm = asm
	return nil
}

// scratch is the working memory of one parrot inference call: the
// kernel's planes, the input patches (lane-interleaved, one lane per
// cell), the coded ticks of a window and their output sums.
type scratch struct {
	k      eedn.Scratch
	in     []float64
	frames []uint64
	acc    []float64
}

// scratchPool lends scratch to concurrent GridInto calls on distinct
// grids and to CellHistogramInto.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// patchLen is the number of pixels in one bordered patch.
const patchLen = CellSide * CellSide

// getScratch returns pooled scratch sized for passes at the given lane
// width (1 or eedn.Lanes) at the extractor's window.
func (e *Extractor) getScratch(lanes int) *scratch {
	s := scratchPool.Get().(*scratch)
	e.Net.Reserve(&s.k, lanes)
	lanes = s.k.Lanes()
	s.in = grow(s.in, patchLen*lanes)
	if e.Window > 0 {
		s.frames = grow(s.frames, e.Window*eedn.SpikeWords(patchLen)*lanes)
		s.acc = grow(s.acc, NBins*lanes)
	}
	return s
}

// grow returns b resized to n, reallocating only when it is too small.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// code writes the spike frames of lanes [0, n) of s.in at window > 0:
// cell by cell, then tick by tick, then input by input, the order in
// which the per-cell float path drew from Rng. Spare lanes stay silent.
// It does nothing at window 0. The Rng draws keep it outside the
// allocation proof, which cannot see into math/rand; TestGridIntoAllocs
// covers it at run time.
func (e *Extractor) code(s *scratch, n int) {
	if e.Window <= 0 {
		return
	}
	lanes := s.k.Lanes()
	fw := eedn.SpikeWords(patchLen) * lanes
	clear(s.frames)
	for l := 0; l < n; l++ {
		for t := 0; t < e.Window; t++ {
			f := s.frames[t*fw : (t+1)*fw]
			if e.Stochastic {
				codeBernoulli(f, s.in, l, lanes, e.Rng)
			} else {
				codeThreshold(f, s.in, l, lanes, (float64(t)+0.5)/float64(e.Window))
			}
		}
	}
}

// codeThreshold sets lane l of spike frame f for one deterministic
// tick: input i fires when its value is >= th (a NaN never does).
func codeThreshold(f []uint64, x []float64, l, lanes int, th float64) {
	for i := 0; i < patchLen; i++ {
		f[(i>>6)*lanes+l] |= b2u(x[i*lanes+l] >= th) << (i & 63)
	}
}

// codeBernoulli sets lane l of spike frame f for one stochastic tick:
// input i fires when a draw from rng is below its value. Every input
// takes one draw, whatever its value.
func codeBernoulli(f []uint64, x []float64, l, lanes int, rng *rand.Rand) {
	for i := 0; i < patchLen; i++ {
		u := rng.Float64()
		f[(i>>6)*lanes+l] |= b2u(u < x[i*lanes+l]) << (i & 63)
	}
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// infer runs the network on the lanes of s at the configured
// precision and returns NBins outputs per lane, lane-interleaved: at
// window 0 one kernel pass on the patches in s.in, otherwise one pass
// per tick on the frames code wrote, the outputs summed in tick order
// and scaled by 1/window.
func (e *Extractor) infer(s *scratch) []float64 {
	if e.Window <= 0 {
		return e.Net.Infer(&s.k, s.in)
	}
	fw := eedn.SpikeWords(patchLen) * s.k.Lanes()
	clear(s.acc)
	for t := 0; t < e.Window; t++ {
		out := e.Net.InferSpikes(&s.k, s.frames[t*fw:(t+1)*fw])
		for i, v := range out {
			s.acc[i] += v
		}
	}
	inv := 1 / float64(e.Window)
	for i := range s.acc {
		s.acc[i] *= inv
	}
	return s.acc
}

// writeHist writes lane l of the lane-interleaved network outputs out
// into hist as vote counts: the outputs above their median, minus it,
// times 64. Raw one-vs-all hinge scores sit on an arbitrary affine
// scale (most targets are -1), so the median subtraction keeps the
// upper half of the confidence distribution, yielding sparse
// histogram-like features; on TrueNorth this recalibration is folded
// into the output neurons' firing thresholds.
func writeHist(hist, out []float64, l, lanes int) {
	var sorted [NBins]float64
	for k := range sorted {
		sorted[k] = out[k*lanes+l]
	}
	// sort.Float64s is slices.Sort under the sort package's name, whose
	// in-place entry points the allocation proof accepts.
	sort.Float64s(sorted[:])
	med := sorted[NBins/2]
	for k := range hist {
		if v := out[k*lanes+l]; v > med {
			hist[k] = (v - med) * 64
		} else {
			hist[k] = 0
		}
	}
}

// CellHistogram returns the parrot confidences for one 10x10 cell,
// scaled to vote counts (x64) so the feature scale matches the
// extractors it parrots (see writeHist).
func (e *Extractor) CellHistogram(cell *imgproc.Image) ([]float64, error) {
	hist := make([]float64, NBins)
	if err := e.CellHistogramInto(hist, cell); err != nil {
		return nil, err
	}
	return hist, nil
}

// CellHistogramInto is CellHistogram writing into a caller-provided
// histogram (NBins long). It runs one lane of the inference kernel on
// pooled scratch, so a warm call allocates nothing.
func (e *Extractor) CellHistogramInto(hist []float64, cell *imgproc.Image) error {
	if cell.W != CellSide || cell.H != CellSide {
		return fmt.Errorf("parrot: cell must be %dx%d, got %dx%d",
			CellSide, CellSide, cell.W, cell.H)
	}
	if len(hist) != NBins {
		return fmt.Errorf("parrot: hist has %d bins, want %d", len(hist), NBins)
	}
	s := e.getScratch(1)
	copy(s.in, cell.Pix)
	e.code(s, 1)
	writeHist(hist, e.infer(s), 0, 1)
	scratchPool.Put(s)
	return nil
}

// GridInto computes parrot histograms for every 8x8 cell of img into
// g, reusing g's backing storage; each cell is evaluated with its
// one-pixel border, bit-identical to CellHistogram of its bordered
// patch. Cells run eedn.Lanes at a time, in raster order, through the
// inference kernel on pooled scratch, so a warm call allocates
// nothing. Calls on distinct grids are concurrency-safe unless
// Stochastic (the shared Rng serializes coding draws). The descriptor
// block plane is prepared at the end so DescriptorInto serves windows
// from pre-normalized copies.
func (e *Extractor) GridInto(g *hog.Grid, img *imgproc.Image) {
	const cs = 8
	cx, cy := img.W/cs, img.H/cs
	g.Reset(cx, cy, NBins)
	if cx == 0 || cy == 0 {
		return
	}
	s := e.getScratch(eedn.Lanes)
	for c0 := 0; c0 < cx*cy; c0 += eedn.Lanes {
		n := min(eedn.Lanes, cx*cy-c0)
		gatherCells(s.in, img, cx, c0, n)
		e.code(s, n)
		e.emitCells(g, s, c0, n)
	}
	scratchPool.Put(s)
	e.asm.PrepareBlocks(g)
}

// gatherCells loads the bordered patches of the n cells from raster
// index c0 on, in an image cx cells wide, into lanes 0..n-1 of the
// lane-interleaved patch plane dst. Spare lanes keep stale pixels;
// their outputs are discarded.
//
//pcnn:hotpath
func gatherCells(dst []float64, img *imgproc.Image, cx, c0, n int) {
	const cs = 8
	for l := 0; l < n; l++ {
		c := c0 + l
		fillPatch(dst, l, eedn.Lanes, img, (c%cx)*cs-1, (c/cx)*cs-1)
	}
}

// emitCells runs the gathered (and, at window > 0, coded) lanes of s
// through the network and writes the histograms of the n cells from
// raster index c0 on into g.
//
//pcnn:hotpath
func (e *Extractor) emitCells(g *hog.Grid, s *scratch, c0, n int) {
	out := e.infer(s)
	for l := 0; l < n; l++ {
		c := c0 + l
		writeHist(g.Hist(c%g.CellsX, c/g.CellsX), out, l, eedn.Lanes)
	}
}

// fillPatch copies the CellSide x CellSide region of img at (x0, y0)
// into lane l of the lane-interleaved patch plane dst, with replicate
// padding, matching imgproc.SubImage. A region inside img is copied
// row by row; only border patches read pixels through the clamping At.
func fillPatch(dst []float64, l, lanes int, img *imgproc.Image, x0, y0 int) {
	if x0 >= 0 && y0 >= 0 && x0+CellSide <= img.W && y0+CellSide <= img.H {
		for y := 0; y < CellSide; y++ {
			src := img.Pix[(y0+y)*img.W+x0 : (y0+y)*img.W+x0+CellSide]
			row := dst[y*CellSide*lanes : (y+1)*CellSide*lanes]
			for x, v := range src {
				row[x*lanes+l] = v
			}
		}
		return
	}
	for y := 0; y < CellSide; y++ {
		row := dst[y*CellSide*lanes : (y+1)*CellSide*lanes]
		for x := 0; x < CellSide; x++ {
			row[x*lanes+l] = img.At(x0+x, y0+y)
		}
	}
}

// DescriptorInto appends the 64x128-window descriptor at (cellX,
// cellY) to dst. Safe for concurrent callers with distinct dst
// buffers.
//
//pcnn:hotpath
func (e *Extractor) DescriptorInto(dst []float64, g *hog.Grid, cellX, cellY int) ([]float64, error) {
	return e.asm.DescriptorInto(dst, g, cellX, cellY)
}

// LinearScoresInto appends the linear scores b + w·x of n windows
// stepped along one row of g to dst, bit-identical to svm.Model.Score
// of their DescriptorInto descriptors (see
// hog.Extractor.LinearScoresInto).
//
//pcnn:hotpath
func (e *Extractor) LinearScoresInto(dst []float64, g *hog.Grid, cellX, cellY, step, n int, w []float64, b float64) ([]float64, error) {
	return e.asm.LinearScoresInto(dst, g, cellX, cellY, step, n, w, b)
}

// MimicryCorrelation measures how well the extractor's confidence
// distributions track the reference histograms on held-out samples —
// the fidelity of the parrot transformation. The reference histogram
// is smoothed over adjacent bins first: "the samples in each class are
// somewhat similar to those in the neighboring classes, so the
// distribution of confidence scores matching the HoG histograms is
// more important than the particular classification" (Sec. 3.2).
func MimicryCorrelation(e *Extractor, samples []Sample) (float64, error) {
	var got, want []float64
	cell := imgproc.New(CellSide, CellSide)
	for _, s := range samples {
		copy(cell.Pix, s.Pixels)
		h, err := e.CellHistogram(cell)
		if err != nil {
			return 0, err
		}
		got = append(got, h...)
		n := len(s.Target)
		for k := range s.Target {
			sm := 0.5*s.Target[k] + 0.25*s.Target[(k+1)%n] + 0.25*s.Target[(k+n-1)%n]
			want = append(want, sm*64)
		}
	}
	return stats.Pearson(got, want)
}

// ClassAccuracy measures Fig. 6's "classifier accuracy": the fraction
// of labeled samples whose argmax confidence matches the orientation
// class. Samples without a dominant orientation (Label < 0) are
// skipped.
func ClassAccuracy(e *Extractor, samples []Sample) float64 {
	ok, n := 0, 0
	cell := imgproc.New(CellSide, CellSide)
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
		if stats.ArgMax(h) == s.Label {
			ok++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}
