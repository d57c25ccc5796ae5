package imgproc

import (
	"bytes"
	"image"
	"image/png"
	"math"
	"testing"
)

// decodeGray decodes WritePNG's output with image/png and requires the
// 8-bit grayscale image WritePNG promises.
func decodeGray(t *testing.T, buf *bytes.Buffer) *image.Gray {
	t.Helper()
	img, err := png.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := img.(*image.Gray)
	if !ok {
		t.Fatalf("decoded %T, want *image.Gray", img)
	}
	return g
}

func TestPNGRoundTrip(t *testing.T) {
	m := New(13, 7)
	for i := range m.Pix {
		m.Pix[i] = float64(i) / float64(len(m.Pix))
	}
	var buf bytes.Buffer
	if err := WritePNG(&buf, m); err != nil {
		t.Fatal(err)
	}
	got := decodeGray(t, &buf)
	if b := got.Bounds(); b.Dx() != 13 || b.Dy() != 7 {
		t.Fatalf("dims %dx%d", b.Dx(), b.Dy())
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			v, want := float64(got.GrayAt(x, y).Y)/255, m.Pix[y*m.W+x]
			if math.Abs(v-want) > 1.0/255 {
				t.Fatalf("pixel (%d,%d): %v vs %v", x, y, v, want)
			}
		}
	}
}

func TestPNGClampsOutOfRange(t *testing.T) {
	m := New(2, 1)
	m.Pix[0] = -3
	m.Pix[1] = 7
	var buf bytes.Buffer
	if err := WritePNG(&buf, m); err != nil {
		t.Fatal(err)
	}
	got := decodeGray(t, &buf)
	if a, b := got.GrayAt(0, 0).Y, got.GrayAt(1, 0).Y; a != 0 || b != 255 {
		t.Errorf("clamping failed: %d, %d", a, b)
	}
}
