package hog

import (
	"sync"

	"repro/internal/fixed"
	"repro/internal/imgproc"
)

// FPGAExtractor models the 16-bit fixed-point HoG accelerator of Advani
// et al. (the paper's baseline, "FPGA-HoG"): 9 orientation bins over
// 0-180 deg, weighted voting in magnitude without interpolation,
// fixed-point gradient/magnitude datapath, 2x2-cell blocks with L2
// normalization applied in fixed point.
//
// It produces descriptors bit-compatible with a Q8.8 datapath: pixels
// are quantized on ingest, derivatives and magnitudes computed with
// saturating fixed-point arithmetic, and the orientation bin taken
// from a float arctangent of the fixed-point gradient
// (fixed.Atan2Bin). Gradients of in-range pixels read their magnitude
// and bin from an exact table of those same expressions
// (fpgaGradTable).
type FPGAExtractor struct {
	cfg Config
	q   fixed.Q
}

// NewFPGAExtractor returns the fixed-point baseline extractor. The
// configuration is fixed to the published design (9 unsigned bins,
// magnitude voting, L2 norm); only the window geometry is a parameter.
func NewFPGAExtractor(windowW, windowH int) (*FPGAExtractor, error) {
	cfg := Config{
		CellSize: 8, NBins: fpgaBins, Signed: false,
		Voting: VoteMagnitude, Norm: NormL2,
		BlockCells: 2, BlockStride: 1,
		WindowW: windowW, WindowH: windowH,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FPGAExtractor{cfg: cfg, q: fixed.Q16_8}, nil
}

// Config returns the extractor's logical HoG configuration.
func (e *FPGAExtractor) Config() Config { return e.cfg }

// Format returns the fixed-point format of the datapath.
func (e *FPGAExtractor) Format() fixed.Q { return e.q }

// GridInto computes the fixed-point cell histograms of img into g,
// reusing g's backing storage. Histogram entries are stored as float64
// for interchange but every value is exactly representable in the Q
// format. Safe to call concurrently on distinct grids.
//
// The pixel plane is quantized once into grid-owned scratch (the FPGA
// receives 8-bit pixels, modeled as Q8.8 values in [0, 1]) and the
// per-cell pass reads it with row-base offsets resolved per pixel row
// instead of a clamping closure per neighbor, taking each in-range
// gradient's magnitude and bin from one exact table read
// (fpgaGradTable). The float block plane is
// prepared afterwards for DescriptorInto: block L2 normalization runs
// in floating point (the FPGA design uses a reciprocal-square-root LUT
// whose error is below the Q8.8 LSB, so the float model is within
// quantization noise of the RTL).
func (e *FPGAExtractor) GridInto(g *Grid, img *imgproc.Image) {
	cs := e.cfg.CellSize
	cx, cy := img.W/cs, img.H/cs
	g.Reset(cx, cy, e.cfg.NBins)
	if cx == 0 || cy == 0 {
		return
	}
	pix := g.fixedPlane(img.W * img.H)
	e.q.FromFloats(pix, img.Pix)
	e.fixedCellPass(g, pix, img.W, img.H, fpgaGradTable())
	ref := Extractor{cfg: e.cfg}
	ref.PrepareBlocks(g)
}

// The published design has fpgaBins unsigned orientation bins. Its
// Q8.8 pixels in [0, 1] give gradient components in [-fpgaGradMax,
// fpgaGradMax] (1.0 is 256 raw), the domain of the gradient table,
// whose side is fpgaGradSide.
const (
	fpgaBins     = 9
	fpgaGradMax  = 256
	fpgaGradSide = 2*fpgaGradMax + 1
)

// fpgaGradTable returns the FPGA datapath's magnitude and bin for every
// gradient (ix, iy) in [-fpgaGradMax, fpgaGradMax]², packed as
// mag<<4 | bin at (ix+fpgaGradMax)*fpgaGradSide + iy+fpgaGradMax:
// 513² entries, 526 KB, built once on first use by evaluating the
// datapath's own expressions under the published configuration (Q8.8,
// fpgaBins unsigned bins), so every entry is bit-identical to
// computing it per pixel. Magnitudes are at most 362 (256·sqrt(2)) and
// bins below 9, so both fit. Immutable once built and shared by every
// extractor.
var fpgaGradTable = sync.OnceValue(func() []uint16 {
	q := fixed.Q16_8
	tab := make([]uint16, fpgaGradSide*fpgaGradSide)
	for ix := int64(-fpgaGradMax); ix <= fpgaGradMax; ix++ {
		for iy := int64(-fpgaGradMax); iy <= fpgaGradMax; iy++ {
			mag := q.Sqrt(q.Add(q.Mul(ix, ix), q.Mul(iy, iy)))
			bin := fixed.Atan2Bin(iy, ix, fpgaBins, false)
			tab[(ix+fpgaGradMax)*fpgaGradSide+iy+fpgaGradMax] = uint16(mag<<4 | int64(bin))
		}
	}
	return tab
})

// fixedCellPass runs the Q-format gradient/magnitude/bin datapath over
// every cell. Neighbor clamping happens at row granularity for y and
// only at the image's outer columns for x. A gradient inside the
// table's domain — every gradient of pixels in [0, 1] — reads its
// magnitude and bin from tab (fpgaGradTable); any other (pixels
// outside [0, 1], ±Inf, the rails) runs the saturating arithmetic.
// The zero gradient, which the arithmetic skips, has table entry 0 and
// adds nothing. The table path's differences and sums saturate against
// the Q16_8 rails as constants (saturateQ16_8).
//
//pcnn:hotpath
func (e *FPGAExtractor) fixedCellPass(g *Grid, pix []int64, iw, ih int, tab []uint16) {
	cs := e.cfg.CellSize
	cx, cy := g.CellsX, g.CellsY
	q := e.q
	nb := e.cfg.NBins
	signed := e.cfg.Signed
	var histArr [maxFixedBins]int64
	hist := histArr[:nb]
	for j := 0; j < cy; j++ {
		for i := 0; i < cx; i++ {
			for b := range hist {
				hist[b] = 0
			}
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
					ix := saturateQ16_8(pix[rowC+xr] - pix[rowC+xl])
					iy := saturateQ16_8(pix[rowU+x] - pix[rowD+x])
					ti, tj := uint64(ix+fpgaGradMax), uint64(iy+fpgaGradMax)
					if ti < fpgaGradSide && tj < fpgaGradSide {
						// b < fpgaBins by construction; indexing the
						// array with a 4-bit value needs no bounds check.
						v := tab[ti*fpgaGradSide+tj]
						b := v & 15
						histArr[b] = saturateQ16_8(histArr[b] + int64(v>>4))
						continue
					}
					mag := q.Sqrt(q.Add(q.Mul(ix, ix), q.Mul(iy, iy)))
					bin := fixed.Atan2Bin(iy, ix, nb, signed)
					hist[bin] = q.Add(hist[bin], mag)
				}
			}
			fh := g.Hist(i, j)
			for b, v := range hist {
				fh[b] = q.ToFloat(v)
			}
		}
	}
}

// fpgaRailMax and fpgaRailMin are the Q16_8 rails, fixed.Q16_8.Max()
// and Min() as constants.
const (
	fpgaRailMax = 1<<15 - 1
	fpgaRailMin = -1 << 15
)

// saturateQ16_8 is fixed.Q16_8.Saturate against the constant rails:
// fixedCellPass's q.Add and q.Sub without recomputing the rails from
// the format on every call. NewFPGAExtractor pins the datapath to
// Q16_8, which fpgaGradTable assumes too.
func saturateQ16_8(raw int64) int64 {
	return min(max(raw, fpgaRailMin), fpgaRailMax)
}

// maxFixedBins bounds the on-stack histogram of the fixed-point cell
// pass; NewFPGAExtractor pins NBins to 9, well inside it.
const maxFixedBins = 32

// DescriptorInto is Extractor.DescriptorInto for the fixed-point grid:
// block assembly and normalization are the same float model.
//
//pcnn:hotpath
func (e *FPGAExtractor) DescriptorInto(dst []float64, g *Grid, cellX, cellY int) ([]float64, error) {
	ref := Extractor{cfg: e.cfg}
	return ref.DescriptorInto(dst, g, cellX, cellY)
}

// LinearScoresInto is Extractor.LinearScoresInto for the fixed-point
// grid, over the same float block plane DescriptorInto reads.
//
//pcnn:hotpath
func (e *FPGAExtractor) LinearScoresInto(dst []float64, g *Grid, cellX, cellY, step, n int, w []float64, b float64) ([]float64, error) {
	ref := Extractor{cfg: e.cfg}
	return ref.LinearScoresInto(dst, g, cellX, cellY, step, n, w, b)
}
