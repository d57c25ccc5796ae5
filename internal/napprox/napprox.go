// Package napprox implements the paper's NApprox HoG design (Sec. 3.1,
// Table 1): HoG re-expressed in operations efficient on TrueNorth.
//
//   - Gradient vector: pattern matching with the four filters
//     (-1 0 1), (1 0 -1) and their transposes, yielding Ix, -Ix, Iy, -Iy.
//   - Gradient angle: the direction theta among the orientation-bin
//     centers for which the projection (Ix cos theta + Iy sin theta)
//     is maximum (comparison).
//   - Gradient magnitude: that same inner product.
//   - Histogram: binned by count, 18 bins over 0-360 degrees.
//
// Two evaluation paths exist:
//
//   - The software model in this file, which the paper also built to
//     "explore a variety of quantization options beyond those currently
//     available on the TrueNorth platform". It operates on integer
//     spike counts when SpikeWindow > 0 and in full floating-point
//     precision otherwise (the paper's "NApprox(fp)").
//   - A corelet realization on the truenorth simulator (corelet.go),
//     validated against the software model by output correlation (the
//     paper reports over 99.5% at matched quantization).
//
// The software model supports two vote semantics. VoteArgmax is the
// literal Table 1 computation (each pixel votes its single dominant
// direction). VoteThreshold votes every direction whose projection
// reaches the threshold, capped at one vote per bin per pixel; it is
// the semantics the spiking corelet computes natively and is used for
// the hardware/software validation.
package napprox

import (
	"fmt"
	"math"

	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/truenorth"
)

// VoteMode selects the software model's per-pixel vote semantics.
type VoteMode int

const (
	// VoteArgmax votes only the direction of maximum projection.
	VoteArgmax VoteMode = iota
	// VoteThreshold votes every direction whose projection meets the
	// threshold (at most once per bin per pixel).
	VoteThreshold
	// VoteRace analytically models the spiking first-spike-race
	// winner-take-all the hardware corelet implements: the bin whose
	// projection crosses the race threshold first wins, and bins whose
	// crossing falls within the lateral-inhibition latency of the
	// winner also vote. This is the "software model that operates
	// equivalently to the NApprox HoG on TrueNorth" used for the
	// Sec. 3.1 hardware/software validation.
	VoteRace
)

// Spiking-design constants shared between the VoteRace software model
// and the hardware corelet (see corelet.go).
const (
	// RateThreshold is the projection neurons' firing threshold.
	RateThreshold = 24
	// RaceSpikes is the number of projection spikes a race neuron
	// needs to win.
	RaceSpikes = 4
	// raceSlackTicks is how long after the coding window projection
	// residues may still produce spikes.
	raceSlackTicks = 8
)

// String implements fmt.Stringer.
func (v VoteMode) String() string {
	switch v {
	case VoteArgmax:
		return "argmax"
	case VoteThreshold:
		return "threshold"
	case VoteRace:
		return "race"
	default:
		return fmt.Sprintf("VoteMode(%d)", int(v))
	}
}

// Config describes an NApprox extractor.
type Config struct {
	// CellSize is the cell side in pixels (8).
	CellSize int
	// NBins is the orientation bin count over 0-360 degrees (18).
	NBins int
	// SpikeWindow is the input quantization: pixel values in [0,1] are
	// rounded to counts out of SpikeWindow spikes (64 in the paper's
	// TrueNorth-compatible configuration). Zero selects full precision.
	SpikeWindow int
	// WeightScale quantizes the direction weights: cos/sin are rounded
	// to integers after scaling by WeightScale (zero selects exact
	// trigonometry). The TrueNorth configuration uses small integer
	// weights representable in a crossbar weight table.
	WeightScale int
	// VoteThreshold is the minimum projection for a pixel to vote. In
	// quantized mode its unit is (spike counts x WeightScale); in full
	// precision the unit is (pixel value x exact weights). Pixels whose
	// dominant projection is below it are treated as flat.
	VoteThreshold float64
	// Mode selects argmax or threshold voting.
	Mode VoteMode
}

// TrueNorthConfig returns the reduced-precision configuration matching
// the paper's hardware-compatible NApprox: 18 bins, 64-spike (6-bit)
// inputs, integer direction weights.
// qualityVoteThreshold is the significance gate for the quality
// (argmax) configurations: below one quantization step (a single
// spike-count difference scales to 32 units at WeightScale 32), a
// gradient is treated as flat. The spiking corelet's own race drive is
// RaceSpikes x RateThreshold and the VoteRace model always uses those
// constants, so this knob affects only the algorithmic-quality
// experiments.
const qualityVoteThreshold = 24

func TrueNorthConfig() Config {
	return Config{
		CellSize: 8, NBins: 18,
		SpikeWindow: 64, WeightScale: 32,
		VoteThreshold: qualityVoteThreshold,
		Mode:          VoteArgmax,
	}
}

// FullPrecision returns the paper's NApprox(fp): identical algorithm
// with floating-point pixels and exact trigonometric weights. The vote
// threshold matches TrueNorthConfig in value terms: quantized units
// out of (64 spike counts x 32 weight scale).
func FullPrecision() Config {
	return Config{
		CellSize: 8, NBins: 18,
		SpikeWindow: 0, WeightScale: 0,
		VoteThreshold: float64(qualityVoteThreshold) / (64 * 32),
		Mode:          VoteArgmax,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CellSize <= 0:
		return fmt.Errorf("napprox: CellSize %d <= 0", c.CellSize)
	case c.NBins <= 0:
		return fmt.Errorf("napprox: NBins %d <= 0", c.NBins)
	case c.SpikeWindow < 0:
		return fmt.Errorf("napprox: SpikeWindow %d < 0", c.SpikeWindow)
	case c.WeightScale < 0:
		return fmt.Errorf("napprox: WeightScale %d < 0", c.WeightScale)
	case c.VoteThreshold < 0:
		return fmt.Errorf("napprox: VoteThreshold %v < 0", c.VoteThreshold)
	case c.Mode != VoteArgmax && c.Mode != VoteThreshold && c.Mode != VoteRace:
		return fmt.Errorf("napprox: unknown vote mode %d", int(c.Mode))
	}
	return nil
}

// CenterOffsetDeg rotates all bin centers by a small angle so that
// axis-aligned gradients (ubiquitous in imagery) do not land exactly
// between two bins, which would make the hardware's winner-take-all
// race systematically tie. Both the software model and the corelet
// share the offset, so features remain mutually consistent.
const CenterOffsetDeg = 1.3

// DirectionWeights returns the per-bin projection weights (A_k, B_k)
// for bin centers theta_k = k * 360/NBins + CenterOffsetDeg degrees
// (the paper's Fig. 3 places the first class at 0 degrees). With
// WeightScale > 0 they are integers; otherwise exact cos/sin.
func (c Config) DirectionWeights() (a, b []float64) {
	a = make([]float64, c.NBins)
	b = make([]float64, c.NBins)
	for k := 0; k < c.NBins; k++ {
		theta := float64(k)*2*math.Pi/float64(c.NBins) + CenterOffsetDeg*math.Pi/180
		ca, sb := math.Cos(theta), math.Sin(theta)
		if c.WeightScale > 0 {
			a[k] = math.Round(ca * float64(c.WeightScale))
			b[k] = math.Round(sb * float64(c.WeightScale))
		} else {
			a[k] = ca
			b[k] = sb
		}
	}
	return a, b
}

// Extractor computes NApprox features. The zero value is unusable;
// construct with New.
type Extractor struct {
	cfg  Config
	a, b []float64 // direction weights
	asm  *hog.Extractor

	// lut, when non-nil, is the exact argmax-vote lookup table over
	// the quantized gradient domain: SpikeWindow-quantized pixels are
	// integers in [0, SpikeWindow], so each gradient component lies in
	// [-SpikeWindow, SpikeWindow] and the (2W+1)² table enumerates
	// every (ix, iy) pair. Entries hold the winning bin or -1 for no
	// vote, precomputed with the same float expressions votePixel
	// evaluates — a bit-identical replacement for the per-pixel argmax
	// scan, not an approximation. Immutable after New.
	lut  []int8
	lutW int
}

// maxLUTSpikeWindow caps the quantized domain the argmax LUT
// enumerates: (2·128+1)² single-byte entries is 64 KiB, past which the
// table stops paying for itself against the NBins-term scan.
const maxLUTSpikeWindow = 128

// buildArgmaxLUT enumerates votePixel's VoteArgmax decision for every
// quantized (ix, iy) gradient pair.
func buildArgmaxLUT(cfg Config, a, b []float64) []int8 {
	w := cfg.SpikeWindow
	side := 2*w + 1
	lut := make([]int8, side*side)
	for ix := -w; ix <= w; ix++ {
		for iy := -w; iy <= w; iy++ {
			fx, fy := float64(ix), float64(iy)
			best, bestV := 0, a[0]*fx+b[0]*fy
			for k := 1; k < cfg.NBins; k++ {
				if m := a[k]*fx + b[k]*fy; m > bestV {
					best, bestV = k, m
				}
			}
			e := int8(-1)
			if bestV > 0 && bestV >= cfg.VoteThreshold {
				e = int8(best)
			}
			lut[(ix+w)*side+(iy+w)] = e
		}
	}
	return lut
}

// New validates cfg and returns an extractor. The norm argument
// selects block contrast normalization for window descriptors: NormL2
// for the SVM experiments (Fig. 4), NormNone for the TrueNorth
// classifier experiments where normalization is elided (Sec. 5).
func New(cfg Config, norm hog.NormMode) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a, b := cfg.DirectionWeights()
	asmCfg := hog.Config{
		CellSize: cfg.CellSize, NBins: cfg.NBins, Signed: true,
		Voting: hog.VoteCount, Norm: norm,
		BlockCells: 2, BlockStride: 1,
		WindowW: 64, WindowH: 128,
	}
	asm, err := hog.NewExtractor(asmCfg)
	if err != nil {
		return nil, err
	}
	e := &Extractor{cfg: cfg, a: a, b: b, asm: asm}
	if cfg.Mode == VoteArgmax && cfg.SpikeWindow > 0 &&
		cfg.SpikeWindow <= maxLUTSpikeWindow && cfg.NBins <= 127 {
		e.lut = buildArgmaxLUT(cfg, a, b)
		e.lutW = cfg.SpikeWindow
	}
	return e, nil
}

// Config returns the extractor configuration.
func (e *Extractor) Config() Config { return e.cfg }

// quantize maps a pixel value in [0,1] to its working representation:
// an integer spike count when quantized, the value itself otherwise.
func (e *Extractor) quantize(v float64) float64 {
	if e.cfg.SpikeWindow == 0 {
		return v
	}
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return math.Round(v * float64(e.cfg.SpikeWindow))
}

// voteCell accumulates the votes of all pixels of the cell whose
// top-left corner is (x0, y0) in img into hist. Gradients use
// replicate padding at image borders, matching imgproc conventions.
func (e *Extractor) voteCell(img *imgproc.Image, x0, y0 int, hist []float64) {
	cs := e.cfg.CellSize
	for y := y0; y < y0+cs; y++ {
		for x := x0; x < x0+cs; x++ {
			r := e.quantize(img.At(x+1, y))
			l := e.quantize(img.At(x-1, y))
			u := e.quantize(img.At(x, y-1))
			d := e.quantize(img.At(x, y+1))
			e.votePixel(r, l, u, d, hist)
		}
	}
}

// votePixel applies the comparison-and-count rule of Table 1 for one
// pixel given its four neighbor values (right, left, up, down) in the
// working representation.
func (e *Extractor) votePixel(r, l, u, d float64, hist []float64) {
	ix, iy := r-l, u-d
	switch e.cfg.Mode {
	case VoteArgmax:
		e.argmaxVote(ix, iy, hist)
	case VoteThreshold:
		th := e.cfg.VoteThreshold
		if th <= 0 {
			th = math.SmallestNonzeroFloat64
		}
		for k := 0; k < e.cfg.NBins; k++ {
			if e.a[k]*ix+e.b[k]*iy >= th {
				hist[k]++
			}
		}
	case VoteRace:
		e.raceVote(r, l, u, d, hist)
	}
}

// argmaxVote votes the single bin of maximum projection of the
// gradient (ix, iy), when that projection is positive and reaches the
// vote threshold.
func (e *Extractor) argmaxVote(ix, iy float64, hist []float64) {
	best, bestV := 0, e.a[0]*ix+e.b[0]*iy
	for k := 1; k < e.cfg.NBins; k++ {
		if m := e.a[k]*ix + e.b[k]*iy; m > bestV {
			best, bestV = k, m
		}
	}
	if bestV > 0 && bestV >= e.cfg.VoteThreshold {
		hist[best]++
	}
}

// raceVote is a discrete mirror of the hardware WTA pipeline: the four
// neighbor values are expanded to their deterministic rate-coded spike
// trains and the projection neurons' integrate/fire/reset-subtract
// dynamics are replayed tick by tick. Each bin's crossing tick is the
// tick its cumulative projection-spike count reaches RaceSpikes; the
// bins with the earliest crossing tick vote (same-tick ties co-vote,
// exactly as lateral inhibition only suppresses from the next tick).
func (e *Extractor) raceVote(r, l, u, d float64, hist []float64) {
	w := e.cfg.SpikeWindow
	if w <= 0 {
		// Full precision has no tick structure: degenerate to argmax.
		e.argmaxVote(r-l, u-d, hist)
		return
	}
	fw := float64(w)
	trains := [4][]bool{
		truenorth.RateEncode(r/fw, w),
		truenorth.RateEncode(l/fw, w),
		truenorth.RateEncode(u/fw, w),
		truenorth.RateEncode(d/fw, w),
	}
	n := e.cfg.NBins
	mem := make([]int64, n)
	spikes := make([]int, n)
	crossing := make([]int, n)
	for k := range crossing {
		crossing[k] = -1
	}
	best := -1
	for t := 0; t < w+raceSlackTicks; t++ {
		var in [4]int64
		if t < w {
			for role, tr := range trains {
				if tr[t] {
					in[role] = 1
				}
			}
		}
		for k := 0; k < n; k++ {
			if crossing[k] >= 0 {
				continue
			}
			a, bk := int64(e.a[k]), int64(e.b[k])
			mem[k] += a*in[0] - a*in[1] + bk*in[2] - bk*in[3]
			if mem[k] >= RateThreshold {
				mem[k] -= RateThreshold
				spikes[k]++
				if spikes[k] >= RaceSpikes {
					crossing[k] = t
					if best < 0 {
						best = t
					}
				}
			}
		}
		if best >= 0 && t > best {
			break // inhibition has landed; later crossings cannot vote
		}
	}
	if best < 0 {
		return
	}
	for k := 0; k < n; k++ {
		if crossing[k] == best {
			hist[k]++
		}
	}
}

// CellHistogram computes the histogram of one cell supplied with its
// one-pixel border: input must be (CellSize+2) square, mirroring the
// paper's 10x10-pixels-per-8x8-cell interface.
func (e *Extractor) CellHistogram(cell *imgproc.Image) ([]float64, error) {
	hist := make([]float64, e.cfg.NBins)
	if err := e.CellHistogramInto(hist, cell); err != nil {
		return nil, err
	}
	return hist, nil
}

// CellHistogramInto is CellHistogram without the histogram allocation:
// hist (NBins long) is overwritten with the cell's votes.
func (e *Extractor) CellHistogramInto(hist []float64, cell *imgproc.Image) error {
	cs := e.cfg.CellSize
	if cell.W != cs+2 || cell.H != cs+2 {
		return fmt.Errorf("napprox: cell must be %dx%d, got %dx%d",
			cs+2, cs+2, cell.W, cell.H)
	}
	if len(hist) != e.cfg.NBins {
		return fmt.Errorf("napprox: hist has %d bins, want %d", len(hist), e.cfg.NBins)
	}
	for i := range hist {
		hist[i] = 0
	}
	e.voteCell(cell, 1, 1, hist)
	return nil
}

// GridInto computes per-cell histograms over img into g, reusing g's
// backing storage. Calls on distinct grids are concurrency-safe.
//
// VoteArgmax runs as a blocked two-step kernel: the image is quantized
// once into grid-owned scratch (each pixel was previously re-quantized
// for every neighbor role, up to four times), then cells accumulate
// from the plane — through the precomputed argmax LUT in the quantized
// configurations, or the inline projection scan at full precision.
// Values are bit-identical to the per-pixel voteCell path, which the
// other vote modes still use. The descriptor block plane is prepared
// at the end so DescriptorInto serves windows from contiguous
// pre-normalized copies.
func (e *Extractor) GridInto(g *hog.Grid, img *imgproc.Image) {
	cs := e.cfg.CellSize
	cx, cy := img.W/cs, img.H/cs
	g.Reset(cx, cy, e.cfg.NBins)
	if cx == 0 || cy == 0 {
		return
	}
	if e.cfg.Mode == VoteArgmax {
		qp := g.ScratchPlane(img.W * img.H)
		e.quantizePlane(qp, img.Pix)
		e.argmaxPass(g, qp, img.W, img.H)
	} else {
		for j := 0; j < cy; j++ {
			for i := 0; i < cx; i++ {
				e.voteCell(img, i*cs, j*cs, g.Hist(i, j))
			}
		}
	}
	e.asm.PrepareBlocks(g)
}

// quantizePlane quantizes every pixel once into qp.
//
//pcnn:hotpath
func (e *Extractor) quantizePlane(qp, pix []float64) {
	for i, v := range pix {
		qp[i] = e.quantize(v)
	}
}

// argmaxPass accumulates VoteArgmax cell histograms from the quantized
// pixel plane, clamping neighbor reads at image borders exactly like
// imgproc's replicate padding. With the LUT present the vote decision
// is one table read per pixel; otherwise the projection scan of
// votePixel runs inline with identical operation order. Either way a
// gradient with a NaN component votes nothing.
//
//pcnn:hotpath
func (e *Extractor) argmaxPass(g *hog.Grid, qp []float64, iw, ih int) {
	cs := e.cfg.CellSize
	cx, cy := g.CellsX, g.CellsY
	nb := e.cfg.NBins
	thr := e.cfg.VoteThreshold
	lut, lutW := e.lut, e.lutW
	side := 2*lutW + 1
	a, b := e.a, e.b
	for j := 0; j < cy; j++ {
		for i := 0; i < cx; i++ {
			hist := g.Hist(i, j)
			for y := j * cs; y < (j+1)*cs; y++ {
				rowC := y * iw
				yu := y - 1
				if yu < 0 {
					yu = 0
				}
				yd := y + 1
				if yd >= ih {
					yd = ih - 1
				}
				rowU, rowD := yu*iw, yd*iw
				for x := i * cs; x < (i+1)*cs; x++ {
					xl, xr := x-1, x+1
					if xl < 0 {
						xl = 0
					}
					if xr >= iw {
						xr = iw - 1
					}
					ix := qp[rowC+xr] - qp[rowC+xl]
					iy := qp[rowU+x] - qp[rowD+x]
					if lut != nil {
						// Quantized gradients are integral floats in
						// [-lutW, lutW]; the conversion is exact. A NaN
						// pixel quantizes to NaN, and a gradient with a
						// NaN component votes nothing, as in argmaxVote.
						if math.IsNaN(ix) || math.IsNaN(iy) {
							continue
						}
						if v := lut[(int(ix)+lutW)*side+int(iy)+lutW]; v >= 0 {
							hist[v]++
						}
						continue
					}
					best, bestV := 0, a[0]*ix+b[0]*iy
					for k := 1; k < nb; k++ {
						if m := a[k]*ix + b[k]*iy; m > bestV {
							best, bestV = k, m
						}
					}
					if bestV > 0 && bestV >= thr {
						hist[best]++
					}
				}
			}
		}
	}
}

// DescriptorInto appends the 64x128-window descriptor at (cellX,
// cellY) to dst, with the block layout and normalization configured at
// construction (7x15 blocks x 4 cells x NBins features; 7560 for 18
// bins). Safe for concurrent callers with distinct dst buffers.
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

// DescriptorLen returns the window descriptor length.
func (e *Extractor) DescriptorLen() int { return e.asm.Config().DescriptorLen() }
