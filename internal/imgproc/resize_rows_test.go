package imgproc

import (
	"math"
	"math/rand"
	"testing"
)

// resizeRowsOracle is the bilinear row kernel as it was before the
// per-call taps: every column's source index and weight recomputed on
// every row, and all four taps read through the clamping At. It is
// kept frozen as the reference resizeRows must match bit for bit.
func resizeRowsOracle(dst, src *Image, y0, y1 int) {
	w, h := dst.W, dst.H
	sx := float64(src.W) / float64(w)
	sy := float64(src.H) / float64(h)
	for y := y0; y < y1; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		iy := int(math.Floor(fy))
		ty := fy - float64(iy)
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			ix := int(math.Floor(fx))
			tx := fx - float64(ix)
			v00 := src.At(ix, iy)
			v10 := src.At(ix+1, iy)
			v01 := src.At(ix, iy+1)
			v11 := src.At(ix+1, iy+1)
			top := v00 + tx*(v10-v00)
			bot := v01 + tx*(v11-v01)
			dst.Pix[y*w+x] = top + ty*(bot-top)
		}
	}
}

// TestResizeRowsIntoMatchesResize pins the bit-identity contract the
// temporal detector's partial pyramid refresh depends on: recomputing
// any subset of output rows writes exactly the pixels a full Resize
// would, regardless of which rows were refreshed or in what order.
func TestResizeRowsIntoMatchesResize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := New(168, 176)
	for i := range src.Pix {
		src.Pix[i] = rng.Float64()
	}
	for _, dim := range [][2]int{{153, 160}, {96, 97}, {168, 176}, {31, 200}} {
		w, h := dim[0], dim[1]
		want := Resize(src, w, h)

		// Rebuild row band by row band in a scrambled order.
		got := New(w, h)
		for i := range got.Pix {
			got.Pix[i] = -7
		}
		for _, band := range [][2]int{{h / 2, h}, {0, h / 4}, {h / 4, h/2 + 3}} {
			ResizeRowsInto(got, src, band[0], band[1])
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if got.Pix[y*w+x] != want.Pix[y*w+x] {
					t.Fatalf("%dx%d: pixel (%d,%d) differs after banded refresh", w, h, x, y)
				}
			}
		}

		// Clipping: out-of-range bands are no-ops, not panics.
		ResizeRowsInto(got, src, -5, 2)
		ResizeRowsInto(got, src, h-1, h+10)
		ResizeRowsInto(got, src, 10, 3)
		for i := range got.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%dx%d: clipped calls corrupted pixel %d", w, h, i)
			}
		}
	}
}

// TestSourceRowsMatchKernel checks that SourceRows names exactly the
// rows the kernel reads: setting a source row to NaN changes an output
// row if and only if SourceRows names it for that row (a NaN tap
// reaches the output even at weight 0).
func TestSourceRowsMatchKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range [][2]int{{7, 3}, {3, 7}, {1, 5}, {5, 1}, {176, 160}, {160, 176}} {
		srcH, dstH := dim[0], dim[1]
		src := New(4, srcH)
		for i := range src.Pix {
			src.Pix[i] = rng.Float64()
		}
		base := Resize(src, 3, dstH)
		for r := 0; r < srcH; r++ {
			edited := src.Clone()
			for x := 0; x < edited.W; x++ {
				edited.Pix[r*edited.W+x] = math.NaN()
			}
			got := Resize(edited, 3, dstH)
			for y := 0; y < dstH; y++ {
				r0, r1 := SourceRows(srcH, dstH, y)
				reads := r == r0 || r == r1
				changed := false
				for x := 0; x < 3; x++ {
					changed = changed || math.Float64bits(got.Pix[y*3+x]) != math.Float64bits(base.Pix[y*3+x])
				}
				if changed != reads {
					t.Fatalf("%d->%d rows: source row %d NaN, row %d changed %v, SourceRows says %d, %d",
						srcH, dstH, r, y, changed, r0, r1)
				}
			}
		}
	}
}

// resizeSpecials are the pixel values FuzzResizeRows plants: NaN, the
// infinities, negative zero and values whose differences overflow.
var resizeSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e308, -1e308}

// resizeSentinel fills the target before the kernel runs; rows outside
// the clipped band must keep it bit for bit.
const resizeSentinel = -7.0625

// FuzzResizeRows holds ResizeRowsInto, and Resize, to the frozen
// At-based kernel resizeRowsOracle, bit for bit (NaN matches NaN). The
// fuzzer picks source and target sides from 0 to 300 (identity,
// upscales, 1-pixel sides and widths beyond one tap chunk), a row band
// [y0, y1) that may lie partly or wholly outside the target, a fill
// seed and planted pixels: (two position bytes, value byte) triples
// whose value byte picks a resizeSpecials entry. The target starts
// filled with resizeSentinel, and every row outside the clipped band
// must keep it.
func FuzzResizeRows(f *testing.F) {
	f.Add(uint16(168), uint16(176), uint16(153), uint16(160), int16(0), int16(160), int64(1), []byte{})
	f.Fuzz(func(t *testing.T, sw, sh, dw, dh uint16, y0, y1 int16, seed int64, plant []byte) {
		src := New(int(sw)%301, int(sh)%301)
		rng := rand.New(rand.NewSource(seed))
		for i := range src.Pix {
			src.Pix[i] = rng.Float64()
		}
		for i := 0; i+2 < len(plant) && len(src.Pix) > 0; i += 3 {
			at := (int(plant[i])<<8 | int(plant[i+1])) * len(src.Pix) >> 16
			src.Pix[at] = resizeSpecials[int(plant[i+2])%len(resizeSpecials)]
		}
		w, h := int(dw)%301, int(dh)%301
		got := New(w, h)
		got.Fill(resizeSentinel)
		ResizeRowsInto(got, src, int(y0), int(y1))

		want := New(w, h)
		want.Fill(resizeSentinel)
		full := New(w, h)
		if len(src.Pix) > 0 && len(want.Pix) > 0 {
			if b0, b1 := max(int(y0), 0), min(int(y1), h); b0 < b1 {
				resizeRowsOracle(want, src, b0, b1)
			}
			resizeRowsOracle(full, src, 0, h)
		}
		sameBits(t, "ResizeRowsInto", got, want)
		sameBits(t, "Resize", Resize(src, w, h), full)
	})
}

// sameBits fails t unless got and want hold the same pixel bits, any
// NaN matching any NaN.
func sameBits(t *testing.T, what string, got, want *Image) {
	t.Helper()
	for i, g := range got.Pix {
		v := want.Pix[i]
		if math.Float64bits(g) != math.Float64bits(v) && !(math.IsNaN(g) && math.IsNaN(v)) {
			t.Fatalf("%s %dx%d: pixel (%d,%d) = %v (%#x), oracle %v (%#x)",
				what, got.W, got.H, i%got.W, i/got.W, g, math.Float64bits(g), v, math.Float64bits(v))
		}
	}
}

// BenchmarkPyramid resizes the 13 levels above level 0 of a random
// 640×480 frame's 1.1× pyramid (64×128 windows, at most 15 levels)
// into warm buffers through ResizeRowsInto, as Detect's level workers
// do; one op is one frame's pyramid.
func BenchmarkPyramid(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := New(640, 480)
	for i := range src.Pix {
		src.Pix[i] = rng.Float64()
	}
	sizes := PyramidSizes(src.W, src.H, 1.1, 64, 128, 15)
	levels := make([]*Image, 0, len(sizes)-1)
	for _, sz := range sizes[1:] {
		levels = append(levels, New(sz.W, sz.H))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lv := range levels {
			ResizeRowsInto(lv, src, 0, lv.H)
		}
	}
}
