package imgproc

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func TestNewAndSetGet(t *testing.T) {
	m := New(4, 3)
	if m.W != 4 || m.H != 3 || len(m.Pix) != 12 {
		t.Fatalf("New dims wrong: %+v", m)
	}
	m.Set(2, 1, 0.5)
	if got := m.At(2, 1); got != 0.5 {
		t.Errorf("At(2,1) = %v", got)
	}
	// Out of range Set is a no-op, At clamps.
	m.Set(-1, 0, 9)
	m.Set(0, 99, 9)
	if m.At(-5, -5) != m.At(0, 0) {
		t.Error("At should clamp to border")
	}
	if m.At(100, 100) != m.At(3, 2) {
		t.Error("At should clamp to far border")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestSubImage(t *testing.T) {
	m := New(4, 4)
	for i := range m.Pix {
		m.Pix[i] = float64(i)
	}
	s := m.SubImage(1, 1, 2, 2)
	if s.At(0, 0) != 5 || s.At(1, 1) != 10 {
		t.Errorf("SubImage values: %v", s.Pix)
	}
	// Clamped extraction beyond border replicates edge.
	e := m.SubImage(3, 3, 2, 2)
	if e.At(1, 1) != 15 || e.At(0, 0) != 15 {
		t.Errorf("border SubImage: %v", e.Pix)
	}
}

func TestFillClamp(t *testing.T) {
	m := New(2, 1)
	m.Fill(2.5)
	m.Set(1, 0, -3)
	m.Clamp01()
	if m.At(0, 0) != 1 || m.At(1, 0) != 0 {
		t.Errorf("Clamp01: %v", m.Pix)
	}
}

func TestGradientRamp(t *testing.T) {
	// Horizontal ramp: Ix = 2*slope via centered difference, Iy = 0.
	m := New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			m.Set(x, y, float64(x)*0.1)
		}
	}
	g := ComputeGradient(m)
	// Interior pixel.
	i := 3*8 + 3
	if math.Abs(g.Ix[i]-0.2) > 1e-12 {
		t.Errorf("Ix = %v, want 0.2", g.Ix[i])
	}
	if g.Iy[i] != 0 {
		t.Errorf("Iy = %v, want 0", g.Iy[i])
	}
	mag, ang := g.MagAngle(3, 3)
	if math.Abs(mag-0.2) > 1e-12 || math.Abs(ang) > 1e-12 {
		t.Errorf("MagAngle = %v, %v", mag, ang)
	}
}

func TestGradientVerticalEdgeAngle(t *testing.T) {
	// Brightness increasing upward (decreasing y): Iy positive -> angle 90 deg.
	m := New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			m.Set(x, y, float64(8-y)*0.1)
		}
	}
	g := ComputeGradient(m)
	_, ang := g.MagAngle(4, 4)
	if math.Abs(ang-math.Pi/2) > 1e-12 {
		t.Errorf("angle = %v, want pi/2", ang)
	}
}

func TestResizeIdentity(t *testing.T) {
	m := New(5, 5)
	for i := range m.Pix {
		m.Pix[i] = float64(i)
	}
	r := Resize(m, 5, 5)
	for i := range m.Pix {
		if math.Abs(r.Pix[i]-m.Pix[i]) > 1e-9 {
			t.Fatalf("identity resize differs at %d: %v vs %v", i, r.Pix[i], m.Pix[i])
		}
	}
}

func TestResizeConstant(t *testing.T) {
	m := New(10, 10)
	m.Fill(0.7)
	r := Resize(m, 3, 7)
	for i, v := range r.Pix {
		if math.Abs(v-0.7) > 1e-9 {
			t.Fatalf("constant resize changed value at %d: %v", i, v)
		}
	}
}

func TestResizeMeanPreservedOnDownscale(t *testing.T) {
	m := New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			m.Set(x, y, float64((x+y)%7)/7)
		}
	}
	r := Resize(m, 32, 32)
	var m1, m2 float64
	for _, v := range m.Pix {
		m1 += v
	}
	for _, v := range r.Pix {
		m2 += v
	}
	m1 /= float64(len(m.Pix))
	m2 /= float64(len(r.Pix))
	if math.Abs(m1-m2) > 0.02 {
		t.Errorf("mean drift on resize: %v vs %v", m1, m2)
	}
}

func TestPyramidLevels(t *testing.T) {
	m := New(220, 110)
	lv := Pyramid(m, 1.1, 64, 32, 0)
	if lv[0] != m {
		t.Error("level 0 should be the input")
	}
	if len(lv) < 5 {
		t.Fatalf("expected several levels, got %d", len(lv))
	}
	for i := 1; i < len(lv); i++ {
		if lv[i].W >= lv[i-1].W {
			t.Errorf("level %d not smaller: %d vs %d", i, lv[i].W, lv[i-1].W)
		}
		if lv[i].W < 64 || lv[i].H < 32 {
			t.Errorf("level %d below min size: %dx%d", i, lv[i].W, lv[i].H)
		}
	}
	capped := Pyramid(m, 1.1, 1, 1, 3)
	if len(capped) != 3 {
		t.Errorf("maxLevels=3 -> %d levels", len(capped))
	}

	// PyramidSizes is the level geometry: it must match the running-
	// product sizes of the original level loop, and Pyramid's images.
	for _, factor := range []float64{1.05, 1.1, 1.3, 2} {
		for _, min := range [][2]int{{1, 1}, {64, 128}, {64, 32}, {300, 1}} {
			for _, maxLevels := range []int{0, 1, 2, 5} {
				for _, dim := range [][2]int{{220, 110}, {640, 480}, {64, 128}, {7, 3}} {
					var want []Size
					scale := 1.0
					for w, h := dim[0], dim[1]; ; {
						want = append(want, Size{w, h})
						if maxLevels > 0 && len(want) >= maxLevels {
							break
						}
						scale *= factor
						w = int(math.Round(float64(dim[0]) / scale))
						h = int(math.Round(float64(dim[1]) / scale))
						if w < min[0] || h < min[1] {
							break
						}
					}
					got := PyramidSizes(dim[0], dim[1], factor, min[0], min[1], maxLevels)
					if min == [2]int{1, 1} {
						// A zero minimum stops at the last non-empty level
						// instead of appending empty levels forever.
						if z := PyramidSizes(dim[0], dim[1], factor, 0, 0, maxLevels); !reflect.DeepEqual(z, got) {
							t.Fatalf("factor %v max %d dim %v: zero minimum gave %v, want %v", factor, maxLevels, dim, z, got)
						}
					}
					lv := Pyramid(New(dim[0], dim[1]), factor, min[0], min[1], maxLevels)
					if len(got) != len(want) || len(lv) != len(want) {
						t.Fatalf("factor %v min %v max %d dim %v: %d sizes, %d levels, want %d",
							factor, min, maxLevels, dim, len(got), len(lv), len(want))
					}
					for i := range want {
						if got[i] != want[i] || lv[i].W != want[i].W || lv[i].H != want[i].H {
							t.Fatalf("factor %v min %v max %d dim %v level %d: size %v, image %dx%d, want %v",
								factor, min, maxLevels, dim, i, got[i], lv[i].W, lv[i].H, want[i])
						}
					}
				}
			}
		}
	}
}

func TestPyramidBadFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for factor <= 1")
		}
	}()
	Pyramid(New(8, 8), 1.0, 1, 1, 0)
}

func TestPGMRoundTrip(t *testing.T) {
	m := New(9, 4)
	for i := range m.Pix {
		m.Pix[i] = float64(i%256) / 255
	}
	var buf bytes.Buffer
	if err := WritePGM(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 9 || got.H != 4 {
		t.Fatalf("dims %dx%d", got.W, got.H)
	}
	for i := range m.Pix {
		if math.Abs(got.Pix[i]-m.Pix[i]) > 1.0/255 {
			t.Fatalf("pixel %d: %v vs %v", i, got.Pix[i], m.Pix[i])
		}
	}
}

func TestReadPGMWithComments(t *testing.T) {
	data := []byte("P5\n# a comment\n2 1\n# another\n255\n\x00\xff")
	m, err := ReadPGM(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 0 || m.At(1, 0) != 1 {
		t.Errorf("pixels: %v", m.Pix)
	}
}

func TestReadPGMErrors(t *testing.T) {
	cases := []string{
		"P2\n2 1\n255\n00",         // ascii PGM unsupported
		"P5\n2 1\n65535\n\x00\x00", // 16-bit unsupported
		"P5\n2 1\n255\n\x00",       // short data
		"P5\nx 1\n255\n\x00\x00",   // bad token
		// A header claiming 10^10 pixels with no data: must fail on the
		// short read, not allocate for the claimed size first.
		"P5\n100000 100000 255\n",
		"P5\n2 1\n100\n\x00\xff",                          // sample above maxval
		"P5\n4611686018427387904 4 255\n\x00",             // W*H overflows int
		"P5\n9223372036854775807 9223372036854775807 1\n", // W*H overflows int
	}
	for _, c := range cases {
		if _, err := ReadPGM(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("expected error for %q", c[:10])
		}
	}
}

func BenchmarkComputeGradient64x128(b *testing.B) {
	m := New(64, 128)
	for i := range m.Pix {
		m.Pix[i] = float64(i%251) / 251
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ComputeGradient(m)
	}
}

func BenchmarkResizeFullHDLevel(b *testing.B) {
	m := New(1920, 1080)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Resize(m, 1745, 981) // one 1.1x pyramid step
	}
}
