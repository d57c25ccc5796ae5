// Package imgproc provides the grayscale image substrate used by every
// feature extractor in the reproduction: image storage, gradient
// operators, bilinear resizing for the detection scale pyramid, window
// extraction, and PGM I/O for interoperability.
//
// The paper reduces color channels from RGB to grayscale before feature
// extraction (Sec. 4), so a single-channel float64 image is the common
// currency of the pipeline.
package imgproc

import (
	"fmt"
	"math"
)

// Image is a single-channel image with float64 pixels, typically in
// [0, 1] but not enforced. Pixels are stored row-major.
type Image struct {
	W, H int
	Pix  []float64
}

// New returns a zeroed W×H image.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		//lint:allow errpanic negative dimensions are a caller bug, mirroring the stdlib image package convention
		panic(fmt.Sprintf("imgproc: negative dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the pixel at (x, y). Coordinates outside the image are
// clamped to the border (replicate padding), which is the padding the
// gradient mask uses at image edges.
func (m *Image) At(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if x >= m.W {
		x = m.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= m.H {
		y = m.H - 1
	}
	return m.Pix[y*m.W+x]
}

// Set assigns the pixel at (x, y); out-of-range coordinates are ignored.
func (m *Image) Set(x, y int, v float64) {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return
	}
	m.Pix[y*m.W+x] = v
}

// Clone returns a deep copy.
func (m *Image) Clone() *Image {
	n := New(m.W, m.H)
	copy(n.Pix, m.Pix)
	return n
}

// SubImage copies the w×h region with top-left corner (x0, y0) into a
// new image, clamping reads at the borders.
func (m *Image) SubImage(x0, y0, w, h int) *Image {
	out := New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Pix[y*w+x] = m.At(x0+x, y0+y)
		}
	}
	return out
}

// Fill sets every pixel to v.
func (m *Image) Fill(v float64) {
	for i := range m.Pix {
		m.Pix[i] = v
	}
}

// Clamp01 clamps every pixel into [0, 1] in place.
func (m *Image) Clamp01() {
	for i, v := range m.Pix {
		if v < 0 {
			m.Pix[i] = 0
		} else if v > 1 {
			m.Pix[i] = 1
		}
	}
}

// Gradient holds per-pixel centered-difference derivatives: the paper's
// [-1, 0, 1] mask in x and its transpose in y (Sec. 2.1, step i).
type Gradient struct {
	W, H   int
	Ix, Iy []float64
}

// ComputeGradient applies the centered 1-D point derivative to m.
// Border pixels use replicate padding, matching the reference HoG.
func ComputeGradient(m *Image) *Gradient {
	g := &Gradient{W: m.W, H: m.H, Ix: make([]float64, m.W*m.H), Iy: make([]float64, m.W*m.H)}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			i := y*m.W + x
			g.Ix[i] = m.At(x+1, y) - m.At(x-1, y)
			// Image rows grow downward; Iy = Pixel1 - Pixel7 in the
			// paper's Fig. 2 means "above minus below".
			g.Iy[i] = m.At(x, y-1) - m.At(x, y+1)
		}
	}
	return g
}

// MagAngle returns the gradient magnitude and angle (radians, atan2
// convention in [-pi, pi]) at pixel (x, y).
func (g *Gradient) MagAngle(x, y int) (mag, ang float64) {
	i := y*g.W + x
	ix, iy := g.Ix[i], g.Iy[i]
	return math.Hypot(ix, iy), math.Atan2(iy, ix)
}

// Resize returns m scaled to w×h using bilinear interpolation, the
// filter used to build the paper's 1.1× detection pyramid.
func Resize(m *Image, w, h int) *Image {
	out := New(w, h)
	if m.W == 0 || m.H == 0 || w == 0 || h == 0 {
		return out
	}
	resizeRows(out, m, 0, h)
	return out
}

// ResizeRowsInto recomputes rows [y0, y1) of dst from src, where dst
// has already been sized to the target dimensions. Each output row of
// the bilinear filter depends only on src, never on other output rows,
// so recomputing a subset of rows yields bit-identical pixels to a
// full Resize — the property the detector's per-worker level buffers
// and the temporal detector's partial pyramid refresh rely on. Rows
// outside [0, dst.H) are clipped.
func ResizeRowsInto(dst, src *Image, y0, y1 int) {
	if src.W == 0 || src.H == 0 || dst.W == 0 || dst.H == 0 {
		return
	}
	if y0 < 0 {
		y0 = 0
	}
	if y1 > dst.H {
		y1 = dst.H
	}
	if y0 >= y1 {
		return
	}
	resizeRows(dst, src, y0, y1)
}

// resizeChunk is the number of output columns whose taps resizeRows
// holds on its stack at once.
const resizeChunk = 256

// resizeRows is the bilinear row kernel shared by Resize and
// ResizeRowsInto: it fills dst rows [y0, y1), inside dst, by sampling
// src; neither image may be empty. Both callers therefore compute
// every pixel with exactly the same float arithmetic.
//
// Each output column's two source columns and weight tx (bilinearTaps)
// are computed once per call, resizeChunk columns at a time, and each
// output row's two source rows and weight ty once per row and chunk.
// The inner loop then reads two source rows at the precomputed
// columns. The taps are the clamped pixels Image.At would read, and
// every expression keeps its order, so the output is bit-identical to
// sampling each tap through At.
//
//pcnn:hotpath
func resizeRows(dst, src *Image, y0, y1 int) {
	w, sw := dst.W, src.W
	sx := float64(sw) / float64(w)
	sy := float64(src.H) / float64(dst.H)
	var xa, xb [resizeChunk]int
	var txs [resizeChunk]float64
	for c0 := 0; c0 < w; c0 += resizeChunk {
		n := min(w-c0, resizeChunk)
		for j := range n {
			xa[j], xb[j], txs[j] = bilinearTaps(sx, sw, c0+j)
		}
		for y := y0; y < y1; y++ {
			r0, r1, ty := bilinearTaps(sy, src.H, y)
			row0 := src.Pix[r0*sw : r0*sw+sw]
			row1 := src.Pix[r1*sw : r1*sw+sw]
			out := dst.Pix[y*w+c0 : y*w+c0+n]
			for j := range out {
				a, b, tx := xa[j], xb[j], txs[j]
				v00, v10 := row0[a], row0[b]
				v01, v11 := row1[a], row1[b]
				top := v00 + tx*(v10-v00)
				bot := v01 + tx*(v11-v01)
				out[j] = top + ty*(bot-top)
			}
		}
	}
}

// bilinearTaps returns the two source indices, clamped to [0, n), and
// the weight of the second that output index i of a bilinear resize
// with scale s (source over output length) reads.
func bilinearTaps(s float64, n, i int) (i0, i1 int, t float64) {
	f := (float64(i)+0.5)*s - 0.5
	fi := int(math.Floor(f))
	return min(max(fi, 0), n-1), min(max(fi+1, 0), n-1), f - float64(fi)
}

// SourceRows returns the two rows of a srcH-row image that output row y
// of its bilinear resize to dstH rows reads: the rows a change to the
// source must touch before ResizeRowsInto needs to recompute row y.
func SourceRows(srcH, dstH, y int) (r0, r1 int) {
	r0, r1, _ = bilinearTaps(float64(srcH)/float64(dstH), srcH, y)
	return r0, r1
}

// Size is an image's width and height in pixels.
type Size struct{ W, H int }

// PyramidSizes returns the level dimensions of the scale pyramid of a
// w×h image, as Pyramid builds it: level 0 is w×h, and level i is w×h
// divided by factor^i (a running product) and rounded. Generation
// stops when a level would be empty or smaller than minW×minH, or
// after maxLevels levels (maxLevels <= 0 means unlimited).
func PyramidSizes(w, h int, factor float64, minW, minH, maxLevels int) []Size {
	if factor <= 1 {
		//lint:allow errpanic a non-shrinking pyramid factor would loop forever; caller bug, not input data
		panic("imgproc: pyramid factor must be > 1")
	}
	sizes := []Size{{w, h}}
	scale := 1.0
	for maxLevels <= 0 || len(sizes) < maxLevels {
		scale *= factor
		lw := int(math.Round(float64(w) / scale))
		lh := int(math.Round(float64(h) / scale))
		if lw < max(minW, 1) || lh < max(minH, 1) {
			break
		}
		sizes = append(sizes, Size{lw, lh})
	}
	return sizes
}

// Pyramid returns successively downscaled copies of m, one per level
// of PyramidSizes(m.W, m.H, factor, minW, minH, maxLevels), each
// resized from m itself. Level 0 is m itself (not copied).
func Pyramid(m *Image, factor float64, minW, minH, maxLevels int) []*Image {
	sizes := PyramidSizes(m.W, m.H, factor, minW, minH, maxLevels)
	levels := make([]*Image, len(sizes))
	levels[0] = m
	for i := 1; i < len(sizes); i++ {
		levels[i] = Resize(m, sizes[i].W, sizes[i].H)
	}
	return levels
}

// BoxBlur applies an r-radius separable box blur in place; r <= 0 is a
// no-op. Borders use replicate padding.
func BoxBlur(m *Image, r int) {
	if r <= 0 {
		return
	}
	tmp := New(m.W, m.H)
	n := float64(2*r + 1)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			var s float64
			for k := -r; k <= r; k++ {
				s += m.At(x+k, y)
			}
			tmp.Pix[y*m.W+x] = s / n
		}
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			var s float64
			for k := -r; k <= r; k++ {
				s += tmp.At(x, y+k)
			}
			m.Pix[y*m.W+x] = s / n
		}
	}
}
