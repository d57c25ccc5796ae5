package hog

import (
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
// saturating fixed-point arithmetic, and the orientation bin resolved
// by a comparison network (fixed.Atan2Bin) rather than an arctangent.
type FPGAExtractor struct {
	cfg Config
	q   fixed.Q
}

// NewFPGAExtractor returns the fixed-point baseline extractor. The
// configuration is fixed to the published design (9 unsigned bins,
// magnitude voting, L2 norm); only the window geometry is a parameter.
func NewFPGAExtractor(windowW, windowH int) (*FPGAExtractor, error) {
	cfg := Config{
		CellSize: 8, NBins: 9, Signed: false,
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
// instead of a clamping closure per neighbor. The float block plane is
// prepared afterwards for DescriptorInto: block L2 normalization runs
// in floating point (the FPGA design uses a reciprocal-square-root LUT
// whose error is below the Q8.8 LSB, so the float model is within
// quantization noise of the RTL).
func (e *FPGAExtractor) GridInto(g *Grid, img *imgproc.Image) {
	cs := e.cfg.CellSize
	cx, cy := img.W/cs, img.H/cs
	q := e.q
	g.Reset(cx, cy, e.cfg.NBins)
	if cx == 0 || cy == 0 {
		return
	}
	pix := g.fixedPlane(img.W * img.H)
	for i, v := range img.Pix {
		pix[i] = q.FromFloat(v)
	}
	e.fixedCellPass(g, pix, img.W, img.H)
	ref := Extractor{cfg: e.cfg}
	ref.PrepareBlocks(g)
}

// fixedCellPass runs the Q-format gradient/magnitude/bin datapath over
// every cell. Neighbor clamping happens at row granularity for y and
// only at the image's outer columns for x.
//
//pcnn:hotpath
func (e *FPGAExtractor) fixedCellPass(g *Grid, pix []int64, iw, ih int) {
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
					ix := q.Sub(pix[rowC+xr], pix[rowC+xl])
					iy := q.Sub(pix[rowU+x], pix[rowD+x])
					if ix == 0 && iy == 0 {
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
