// Package hog implements Histogram-of-Oriented-Gradients feature
// extraction as described in Sec. 2.1 and Sec. 4 of the paper:
//
//   - the reference floating-point HoG (Dalal & Triggs): centered
//     [-1,0,1] derivative mask, magnitude-weighted orientation voting
//     with bilinear interpolation between bins, 8x8-pixel cells, 2x2-cell
//     blocks strided by one cell, and L2 block contrast normalization;
//   - a count-voting, 18-bin variant matching the conventions the
//     NApprox design adopts (voting in counts, aliasing ignored);
//   - an FPGA fixed-point model (see fpga.go) reproducing the 16-bit
//     baseline of Advani et al. that the paper compares against.
//
// A 64x128 window with 9 unsigned bins yields 7x15 blocks x 4 cells x 9
// bins = 3780 features; with 18 signed bins the paper's 7560 features.
package hog

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/imgproc"
	"repro/internal/stats"
)

// VotingMode selects how a pixel contributes to its orientation bin.
type VotingMode int

const (
	// VoteMagnitudeInterp adds the gradient magnitude, split between the
	// two nearest bins by bilinear interpolation (the Dalal-Triggs
	// reference; mitigates orientation aliasing).
	VoteMagnitudeInterp VotingMode = iota
	// VoteMagnitude adds the full gradient magnitude to the single
	// nearest bin (hardware-friendly; aliasing ignored).
	VoteMagnitude
	// VoteCount adds 1 to the nearest bin when the magnitude exceeds
	// the extractor threshold (the NApprox convention: "binned by
	// count", Table 1).
	VoteCount
)

// String implements fmt.Stringer.
func (v VotingMode) String() string {
	switch v {
	case VoteMagnitudeInterp:
		return "magnitude+interp"
	case VoteMagnitude:
		return "magnitude"
	case VoteCount:
		return "count"
	default:
		return fmt.Sprintf("VotingMode(%d)", int(v))
	}
}

// NormMode selects block contrast normalization.
type NormMode int

const (
	// NormNone performs no block normalization. The paper elides block
	// normalization when the classifier runs on TrueNorth (Sec. 5).
	NormNone NormMode = iota
	// NormL2 normalizes each block vector v to v/||v||_2 (the paper's
	// "l2norm").
	NormL2
	// NormL1 normalizes to v/(||v||_1 + eps).
	NormL1
	// NormL1Sqrt applies L1 normalization then element-wise square
	// root (Dalal-Triggs "L1-sqrt").
	NormL1Sqrt
	// NormL2Hys applies L2, clips elements at 0.2, then renormalizes
	// (Dalal-Triggs "L2-hys").
	NormL2Hys
)

// String implements fmt.Stringer.
func (n NormMode) String() string {
	switch n {
	case NormNone:
		return "none"
	case NormL2:
		return "l2"
	case NormL1:
		return "l1"
	case NormL1Sqrt:
		return "l1-sqrt"
	case NormL2Hys:
		return "l2-hys"
	default:
		return fmt.Sprintf("NormMode(%d)", int(n))
	}
}

// applyNorm normalizes one block vector in place.
func applyNorm(mode NormMode, v []float64) {
	switch mode {
	case NormNone:
		// Raw histogram counts pass through untouched.
	case NormL2:
		stats.Normalize(v)
	case NormL1, NormL1Sqrt:
		var sum float64
		for _, x := range v {
			sum += math.Abs(x)
		}
		if sum == 0 {
			return
		}
		for i := range v {
			v[i] /= sum
			if mode == NormL1Sqrt {
				v[i] = math.Sqrt(math.Abs(v[i]))
			}
		}
	case NormL2Hys:
		stats.Normalize(v)
		clipped := false
		for i := range v {
			if v[i] > 0.2 {
				v[i] = 0.2
				clipped = true
			}
		}
		if clipped {
			stats.Normalize(v)
		}
	}
}

// Config describes a HoG extractor.
type Config struct {
	CellSize    int        // pixels per cell side (8 in the paper)
	NBins       int        // orientation bins (9 or 18)
	Signed      bool       // false: bins span 0-180 deg; true: 0-360 deg
	Voting      VotingMode // orientation voting scheme
	Norm        NormMode   // block contrast normalization
	BlockCells  int        // cells per block side (2 in the paper)
	BlockStride int        // block stride in cells (1 in the paper)
	WindowW     int        // detection window width in pixels (64)
	WindowH     int        // detection window height in pixels (128)
	// CountThreshold is the minimum gradient magnitude for a pixel to
	// vote under VoteCount; pixels below it are treated as flat.
	CountThreshold float64
	// SpatialInterp additionally splits each pixel's vote bilinearly
	// between the four nearest cells (the full Dalal-Triggs scheme;
	// the paper's footnote 1 discusses this as the aliasing
	// mitigation its approximations elide).
	SpatialInterp bool
}

// Reference returns the Dalal-Triggs-style configuration used for the
// FPGA baseline comparison in Fig. 4: 9 unsigned bins, magnitude voting
// with interpolation, L2 block norm.
func Reference() Config {
	return Config{
		CellSize: 8, NBins: 9, Signed: false,
		Voting: VoteMagnitudeInterp, Norm: NormL2,
		BlockCells: 2, BlockStride: 1,
		WindowW: 64, WindowH: 128,
		CountThreshold: 0.02,
	}
}

// NApproxStyle returns the 18-bin signed count-voting configuration the
// NApprox design uses ("voting in counts", Table 1), with L2 block norm
// for the SVM experiments of Fig. 4.
func NApproxStyle() Config {
	c := Reference()
	c.NBins = 18
	c.Signed = true
	c.Voting = VoteCount
	return c
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.CellSize <= 0:
		return fmt.Errorf("hog: CellSize %d <= 0", c.CellSize)
	case c.NBins <= 0:
		return fmt.Errorf("hog: NBins %d <= 0", c.NBins)
	case c.BlockCells <= 0:
		return fmt.Errorf("hog: BlockCells %d <= 0", c.BlockCells)
	case c.BlockStride <= 0:
		return fmt.Errorf("hog: BlockStride %d <= 0", c.BlockStride)
	case c.WindowW%c.CellSize != 0 || c.WindowH%c.CellSize != 0:
		return fmt.Errorf("hog: window %dx%d not a multiple of cell size %d",
			c.WindowW, c.WindowH, c.CellSize)
	case c.WindowW/c.CellSize < c.BlockCells || c.WindowH/c.CellSize < c.BlockCells:
		return fmt.Errorf("hog: window smaller than one block")
	case c.SpatialInterp && c.Voting == VoteCount:
		return fmt.Errorf("hog: spatial interpolation needs magnitude voting (counts cannot be split)")
	}
	return nil
}

// CellsX returns the number of cell columns in a window.
func (c Config) CellsX() int { return c.WindowW / c.CellSize }

// CellsY returns the number of cell rows in a window.
func (c Config) CellsY() int { return c.WindowH / c.CellSize }

// BlocksX returns the number of block columns in a window.
func (c Config) BlocksX() int { return (c.CellsX()-c.BlockCells)/c.BlockStride + 1 }

// BlocksY returns the number of block rows in a window.
func (c Config) BlocksY() int { return (c.CellsY()-c.BlockCells)/c.BlockStride + 1 }

// DescriptorLen returns the length of a window descriptor.
func (c Config) DescriptorLen() int {
	return c.BlocksX() * c.BlocksY() * c.BlockCells * c.BlockCells * c.NBins
}

// Extractor computes HoG descriptors under a fixed configuration.
type Extractor struct {
	cfg Config
}

// NewExtractor validates cfg and returns an extractor.
func NewExtractor(cfg Config) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Extractor{cfg: cfg}, nil
}

// Config returns the extractor's configuration.
func (e *Extractor) Config() Config { return e.cfg }

// binOf maps an angle in radians (atan2 convention) to a fractional bin
// position in [0, NBins). The integer part is the lower bin; the
// fraction drives bilinear interpolation.
func (e *Extractor) binOf(ang float64) float64 {
	deg := ang * 180 / math.Pi
	if deg < 0 {
		deg += 360
	}
	span := 360.0
	if !e.cfg.Signed {
		span = 180.0
		if deg >= 180 {
			deg -= 180
		}
	}
	b := deg / (span / float64(e.cfg.NBins))
	if b >= float64(e.cfg.NBins) {
		b -= float64(e.cfg.NBins)
	}
	return b
}

// vote adds one pixel's contribution to hist. A gradient with a NaN
// component (its angle is then NaN) votes nothing.
func (e *Extractor) vote(hist []float64, mag, ang float64) {
	if mag == 0 || math.IsNaN(ang) {
		return
	}
	fb := e.binOf(ang)
	n := e.cfg.NBins
	switch e.cfg.Voting {
	case VoteMagnitudeInterp:
		lo := int(fb) % n
		hi := (lo + 1) % n
		t := fb - math.Floor(fb)
		hist[lo] += mag * (1 - t)
		hist[hi] += mag * t
	case VoteMagnitude:
		hist[int(fb)%n] += mag
	case VoteCount:
		if mag >= e.cfg.CountThreshold {
			hist[int(fb)%n]++
		}
	}
}

// GridInto computes the per-cell orientation histograms of img into g,
// reusing g's backing storage. The image must be at least one cell in
// each dimension to yield any cells; trailing partial cells are
// ignored, and gradients at image borders use replicate padding. It is
// safe to call concurrently on distinct grids.
//
// The non-spatial path runs as two blocked kernels over reusable SoA
// planes — one gradient+binning sweep over the pixels, one row-run
// histogram accumulation — instead of the historical per-pixel
// vote-call chain; the accumulation visits each cell's pixels in the
// same raster order as the per-pixel code, so the float summation
// order (and therefore every histogram bit) is unchanged. GridInto
// also prepares the fused normalize+descriptor block plane that
// DescriptorInto serves windows from (see PrepareBlocks).
func (e *Extractor) GridInto(g *Grid, img *imgproc.Image) {
	cs := e.cfg.CellSize
	cx, cy := img.W/cs, img.H/cs
	g.Reset(cx, cy, e.cfg.NBins)
	if cx == 0 || cy == 0 {
		return
	}
	if e.cfg.SpatialInterp {
		e.gridIntoSpatial(g, imgproc.ComputeGradient(img))
	} else {
		w, h := cx*cs, cy*cs
		mag, bin, frac := g.soaPlanes(w * h)
		e.gradBinPass(img, w, h, mag, bin, frac)
		e.accumulateCells(g, w, mag, bin, frac)
	}
	e.PrepareBlocks(g)
}

// gridIntoSpatial is the full Dalal-Triggs voting pass over the
// image's gradient field: each pixel's vote is split bilinearly among
// the four cells whose centers surround it. Cross-cell splitting
// defeats row-run blocking (one pixel updates up to four histograms),
// so this path keeps the per-pixel structure.
func (e *Extractor) gridIntoSpatial(g *Grid, grad *imgproc.Gradient) {
	cs := e.cfg.CellSize
	cx, cy := g.CellsX, g.CellsY
	half := float64(cs) / 2
	for y := 0; y < cy*cs; y++ {
		for x := 0; x < cx*cs; x++ {
			mag, ang := grad.MagAngle(x, y)
			if mag == 0 {
				continue
			}
			fx := (float64(x) + 0.5 - half) / float64(cs)
			fy := (float64(y) + 0.5 - half) / float64(cs)
			ix := int(math.Floor(fx))
			iy := int(math.Floor(fy))
			tx := fx - float64(ix)
			ty := fy - float64(iy)
			for _, c := range [4]struct {
				dx, dy int
				w      float64
			}{
				{0, 0, (1 - tx) * (1 - ty)},
				{1, 0, tx * (1 - ty)},
				{0, 1, (1 - tx) * ty},
				{1, 1, tx * ty},
			} {
				gx, gy := ix+c.dx, iy+c.dy
				if gx < 0 || gx >= cx || gy < 0 || gy >= cy || c.w == 0 {
					continue
				}
				e.vote(g.Hist(gx, gy), mag*c.w, ang)
			}
		}
	}
}

// gradBinPass is the exact single-sweep gradient+binning kernel: for
// every pixel of the w x h cell-covered region it writes the gradient
// magnitude, lower orientation bin, and interpolation fraction into
// the SoA planes. Per-pixel arithmetic is exactly the historical
// chain (centered differences with replicate padding, math.Hypot,
// math.Atan2, binOf with the bin width hoisted to the same
// precomputed value), so downstream accumulation is bit-identical to
// the per-pixel vote calls. Pixels with zero magnitude store bin 0
// and magnitude +0, which accumulate as exact no-ops; so do pixels
// whose gradient has a NaN component, which vote nothing.
//
//pcnn:hotpath
func (e *Extractor) gradBinPass(img *imgproc.Image, w, h int, mag []float64, bin []int32, frac []float64) {
	pix := img.Pix
	iw, ih := img.W, img.H
	nb := e.cfg.NBins
	nbF := float64(nb)
	span := 360.0
	if !e.cfg.Signed {
		span = 180.0
	}
	binW := span / nbF
	signed := e.cfg.Signed
	for y := 0; y < h; y++ {
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
		out := y * w
		// Columns needing an x-clamp: x=0 always; x=w-1 only when the
		// cell region spans the full image width.
		xHi := w
		if w == iw {
			xHi = w - 1
		}
		for x := 0; x < w; x++ {
			xl, xr := x-1, x+1
			if x == 0 {
				xl = 0
			}
			if x >= xHi {
				xr = iw - 1
			}
			ixv := pix[rowC+xr] - pix[rowC+xl]
			iyv := pix[rowU+x] - pix[rowD+x]
			m := math.Hypot(ixv, iyv)
			ang := math.Atan2(iyv, ixv)
			idx := out + x
			if math.IsNaN(ang) {
				mag[idx], bin[idx], frac[idx] = 0, 0, 0
				continue
			}
			deg := ang * 180 / math.Pi
			if deg < 0 {
				deg += 360
			}
			if !signed && deg >= 180 {
				deg -= 180
			}
			fb := deg / binW
			if fb >= nbF {
				fb -= nbF
			}
			mag[idx] = m
			bin[idx] = int32(int(fb) % nb)
			frac[idx] = fb - math.Floor(fb)
		}
	}
}

// accumulateCells folds the SoA planes into the per-cell histograms,
// walking each plane row-run at a time: for every cell row the pixel
// rows are consumed left to right, so each histogram receives its
// pixels' votes in exactly the raster order of the per-pixel code
// (float summation order per accumulator is preserved — interleaving
// between distinct histograms cannot change any individual sum). The
// voting-mode switch is hoisted out of the pixel loops.
//
//pcnn:hotpath
func (e *Extractor) accumulateCells(g *Grid, w int, mag []float64, bin []int32, frac []float64) {
	cs, nb := e.cfg.CellSize, e.cfg.NBins
	cx, cy := g.CellsX, g.CellsY
	switch e.cfg.Voting {
	case VoteMagnitudeInterp:
		for j := 0; j < cy; j++ {
			histRow := g.Data[j*cx*nb : (j+1)*cx*nb]
			for y := j * cs; y < (j+1)*cs; y++ {
				row := y * w
				for i := 0; i < cx; i++ {
					hist := histRow[i*nb : i*nb+nb]
					for x := i * cs; x < (i+1)*cs; x++ {
						idx := row + x
						m := mag[idx]
						lo := int(bin[idx])
						t := frac[idx]
						hi := lo + 1
						if hi == nb {
							hi = 0
						}
						hist[lo] += m * (1 - t)
						hist[hi] += m * t
					}
				}
			}
		}
	case VoteMagnitude:
		for j := 0; j < cy; j++ {
			histRow := g.Data[j*cx*nb : (j+1)*cx*nb]
			for y := j * cs; y < (j+1)*cs; y++ {
				row := y * w
				for i := 0; i < cx; i++ {
					hist := histRow[i*nb : i*nb+nb]
					for x := i * cs; x < (i+1)*cs; x++ {
						idx := row + x
						hist[bin[idx]] += mag[idx]
					}
				}
			}
		}
	case VoteCount:
		thr := e.cfg.CountThreshold
		for j := 0; j < cy; j++ {
			histRow := g.Data[j*cx*nb : (j+1)*cx*nb]
			for y := j * cs; y < (j+1)*cs; y++ {
				row := y * w
				for i := 0; i < cx; i++ {
					hist := histRow[i*nb : i*nb+nb]
					for x := i * cs; x < (i+1)*cs; x++ {
						idx := row + x
						if m := mag[idx]; m != 0 && m >= thr {
							hist[bin[idx]]++
						}
					}
				}
			}
		}
	}
}

// PrepareBlocks builds (or rebuilds) g's fused normalize+descriptor
// block plane under this extractor's configuration: the
// block-normalized vector of every block position of the grid, laid
// out row-major so DescriptorInto can emit a window descriptor as a
// handful of contiguous copies. Per-block normalization depends only
// on the block's own cells, never on which window reads it, so the
// plane's values are bit-identical to normalizing inside each window.
// GridInto calls this automatically; call it manually for grids
// filled by other means, which DescriptorInto otherwise rejects.
func (e *Extractor) PrepareBlocks(g *Grid) {
	bc := e.cfg.BlockCells
	nbx, nby := g.CellsX-bc+1, g.CellsY-bc+1
	if nbx <= 0 || nby <= 0 || g.Bins != e.cfg.NBins {
		g.blocks.valid = false
		return
	}
	blockLen := bc * bc * g.Bins
	data := g.ensureBlocks(nbx, nby, blockLen, e.cfg.NBins, bc, e.cfg.Norm)
	e.buildBlocks(g, data, nbx, nby, bc, blockLen)
	g.blocks.valid = true
}

// buildBlocks is the fused copy+normalize kernel behind PrepareBlocks:
// each block gathers its cell rows (contiguous in the flat grid) and
// is normalized in place in its final position — no per-window
// temporaries.
//
//pcnn:hotpath
func (e *Extractor) buildBlocks(g *Grid, data []float64, nbx, nby, bc, blockLen int) {
	nb := g.Bins
	cx := g.CellsX
	rowLen := bc * nb
	mode := e.cfg.Norm
	off := 0
	for by := 0; by < nby; by++ {
		for bx := 0; bx < nbx; bx++ {
			dst := data[off : off+blockLen]
			for j := 0; j < bc; j++ {
				src := ((by+j)*cx + bx) * nb
				copy(dst[j*rowLen:(j+1)*rowLen], g.Data[src:src+rowLen])
			}
			applyNorm(mode, dst)
			off += blockLen
		}
	}
}

// CellHistogram computes the histogram of a single cell supplied with a
// one-pixel border: the input must be (CellSize+2) pixels square, and
// gradients are evaluated on the interior CellSize x CellSize region so
// every derivative uses true neighbors (the paper feeds 10x10 pixels
// per 8x8 cell, Sec. 4).
func (e *Extractor) CellHistogram(cell *imgproc.Image) ([]float64, error) {
	hist := make([]float64, e.cfg.NBins)
	if err := e.CellHistogramInto(hist, cell); err != nil {
		return nil, err
	}
	return hist, nil
}

// CellHistogramInto is CellHistogram without the allocations: it
// overwrites hist (which must be NBins long) with the cell's
// histogram, computing the interior gradients inline instead of
// materializing whole-patch derivative planes. Values are identical
// to CellHistogram.
func (e *Extractor) CellHistogramInto(hist []float64, cell *imgproc.Image) error {
	cs := e.cfg.CellSize
	if cell.W != cs+2 || cell.H != cs+2 {
		return fmt.Errorf("hog: cell must be %dx%d (cell+border), got %dx%d",
			cs+2, cs+2, cell.W, cell.H)
	}
	if len(hist) != e.cfg.NBins {
		return fmt.Errorf("hog: hist has %d bins, want %d", len(hist), e.cfg.NBins)
	}
	for i := range hist {
		hist[i] = 0
	}
	e.cellVotePass(hist, cell)
	return nil
}

// cellVotePass votes the interior pixels of a bordered cell patch into
// hist. Interior pixels always have true neighbors, so the centered
// differences read the pixel plane directly.
//
//pcnn:hotpath
func (e *Extractor) cellVotePass(hist []float64, cell *imgproc.Image) {
	cs := e.cfg.CellSize
	w := cell.W
	pix := cell.Pix
	for y := 1; y <= cs; y++ {
		row := y * w
		for x := 1; x <= cs; x++ {
			ix := pix[row+x+1] - pix[row+x-1]
			iy := pix[row-w+x] - pix[row+w+x]
			e.vote(hist, math.Hypot(ix, iy), math.Atan2(iy, ix))
		}
	}
}

// ErrNoBlockPlane is the error DescriptorInto returns for a grid that
// carries no block plane prepared under the extractor's configuration:
// one filled by hand, or one whose plane InvalidateBlocks dropped.
var ErrNoBlockPlane = errors.New("hog: grid has no block plane for this configuration; call PrepareBlocks")

// DescriptorInto appends the descriptor of the window whose top-left
// cell is (cellX, cellY) in g to dst and returns the extended slice,
// with zero allocations once dst has capacity (append into dst[:0] of
// a per-worker scratch buffer). The layout is blocks in raster order,
// cells within each block in raster order, bins innermost, each block
// normalized under the configured norm. It is safe for concurrent
// callers holding distinct dst buffers over one read-only grid.
//
// The descriptor is emitted as contiguous copies of g's pre-normalized
// block plane, so g must carry a plane prepared under this
// configuration (GridInto builds one; grids filled by other means need
// PrepareBlocks). Without one it returns ErrNoBlockPlane, and when the
// window does not fit g another error; either way dst is unchanged.
//
//pcnn:hotpath
func (e *Extractor) DescriptorInto(dst []float64, g *Grid, cellX, cellY int) ([]float64, error) {
	p, err := e.windowPlane(g, cellX, cellY)
	if err != nil {
		return dst, err
	}
	bc, bs, cy := e.cfg.BlockCells, e.cfg.BlockStride, e.cfg.CellsY()
	segLen, segs := e.segments(p.blockLen)
	for by := 0; by+bc <= cy; by += bs {
		rowOff := ((cellY+by)*p.nbx + cellX) * p.blockLen
		for k := 0; k < segs; k++ {
			off := rowOff + k*bs*p.blockLen
			dst = append(dst, p.data[off:off+segLen]...)
		}
	}
	return dst, nil
}

// windowPlane returns g's block plane after checking that the window
// at top-left cell (cellX, cellY) fits g: the checks DescriptorInto
// and LinearScoresInto share. It returns ErrNoBlockPlane when g holds
// no plane prepared under this configuration.
func (e *Extractor) windowPlane(g *Grid, cellX, cellY int) (*blockPlane, error) {
	if err := g.checkWindow(cellX, cellY, e.cfg.CellsX(), e.cfg.CellsY(), e.cfg.NBins); err != nil {
		return nil, err
	}
	p := g.blocksFor(e.cfg.NBins, e.cfg.BlockCells, e.cfg.Norm)
	if p == nil {
		return nil, ErrNoBlockPlane
	}
	return p, nil
}

// segments returns how a window's descriptor lies in the block plane:
// in each block row it covers (every BlockStride-th), segs contiguous
// runs of segLen values, BlockStride blocks apart. At block stride 1 a
// block row's blocks are adjacent in the plane, so the row is one run
// (one copy per block row instead of one per block); otherwise each
// block is its own run.
func (e *Extractor) segments(blockLen int) (segLen, segs int) {
	segs = (e.cfg.CellsX()-e.cfg.BlockCells)/e.cfg.BlockStride + 1
	if e.cfg.BlockStride == 1 {
		return segs * blockLen, 1
	}
	return blockLen, segs
}

// LinearScoresInto appends to dst the linear scores b + w·x_j of the n
// windows whose top-left cells are (cellX+j*step, cellY), j = 0..n-1,
// where x_j is the window's DescriptorInto descriptor, and returns the
// extended slice. The descriptors are never copied out: the kernel
// reads them straight from g's block plane, four windows per pass over
// w (DESIGN §7: eight measured no faster), each window with its own
// accumulator. Each accumulator starts at b and adds w[i]*x_j[i] in
// descriptor order, exactly as svm.Model.Score does, so every score is
// bit-identical to Score of the DescriptorInto descriptor. Like
// DescriptorInto it is safe for concurrent callers holding distinct dst
// buffers over one read-only grid.
//
// It fails where DescriptorInto would fail for any of the n windows
// (a window off the grid, ErrNoBlockPlane) and when len(w) is not the
// descriptor length; on error dst is unchanged.
//
//pcnn:hotpath
func (e *Extractor) LinearScoresInto(dst []float64, g *Grid, cellX, cellY, step, n int, w []float64, b float64) ([]float64, error) {
	if want := e.cfg.DescriptorLen(); len(w) != want {
		return dst, fmt.Errorf("hog: %d weights, descriptor has %d values", len(w), want)
	}
	if n < 0 {
		return dst, fmt.Errorf("hog: negative window count %d", n)
	}
	if n == 0 {
		return dst, nil
	}
	// Window columns move monotonically, so the first and last window
	// bound the run. A step or count the grid cannot hold fails before
	// (n-1)*step could overflow.
	last := cellX
	if n > 1 && step != 0 {
		if step > g.CellsX || -step > g.CellsX || n-1 > g.CellsX {
			return dst, fmt.Errorf("hog: %d windows %d cells apart do not fit grid %dx%d",
				n, step, g.CellsX, g.CellsY)
		}
		last += (n - 1) * step
	}
	if err := g.checkWindow(last, cellY, e.cfg.CellsX(), e.cfg.CellsY(), e.cfg.NBins); err != nil {
		return dst, err
	}
	p, err := e.windowPlane(g, cellX, cellY)
	if err != nil {
		return dst, err
	}
	bc, bs, bl, cy := e.cfg.BlockCells, e.cfg.BlockStride, p.blockLen, e.cfg.CellsY()
	segLen, segs := e.segments(bl)
	data := p.data
	for j0 := 0; j0 < n; j0 += 4 {
		// Lanes past the last window re-read it; their sums are
		// dropped.
		o0 := (cellX + j0*step) * bl
		o1 := (cellX + min(j0+1, n-1)*step) * bl
		o2 := (cellX + min(j0+2, n-1)*step) * bl
		o3 := (cellX + min(j0+3, n-1)*step) * bl
		s0, s1, s2, s3 := b, b, b, b
		wo := 0
		for by := 0; by+bc <= cy; by += bs {
			rowOff := (cellY + by) * p.nbx * bl
			for k := 0; k < segs; k++ {
				off := rowOff + k*bs*bl
				ws := w[wo : wo+segLen]
				x0 := data[off+o0 : off+o0+segLen]
				x1 := data[off+o1 : off+o1+segLen]
				x2 := data[off+o2 : off+o2+segLen]
				x3 := data[off+o3 : off+o3+segLen]
				// Equal lengths let the compiler drop the bounds checks.
				x0, x1, x2, x3 = x0[:len(ws)], x1[:len(ws)], x2[:len(ws)], x3[:len(ws)]
				for i, wi := range ws {
					s0 += wi * x0[i]
					s1 += wi * x1[i]
					s2 += wi * x2[i]
					s3 += wi * x3[i]
				}
				wo += segLen
			}
		}
		switch n - j0 {
		case 1:
			dst = append(dst, s0)
		case 2:
			dst = append(dst, s0, s1)
		case 3:
			dst = append(dst, s0, s1, s2)
		default:
			dst = append(dst, s0, s1, s2, s3)
		}
	}
	return dst, nil
}
