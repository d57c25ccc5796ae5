package imgproc

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadPGM holds ReadPGM to its contract on arbitrary input: it
// never panics, every image it accepts has W*H pixels in [0,1], and a
// WritePGM -> ReadPGM round trip keeps the dimensions and every pixel
// within one 8-bit step. The committed corpus under
// testdata/fuzz/FuzzReadPGM holds the hostile inputs: a 10^10-pixel
// header without data, a 10^12-pixel row, a sample above maxval and a
// W*H that overflows int.
func FuzzReadPGM(f *testing.F) {
	for _, seed := range []string{
		"P5\n2 1\n255\n\x00\xff",
		"P5\n# comment\n3 2\n7\n\x00\x01\x02\x03\x04\x07",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadPGM(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.W <= 0 || m.H <= 0 || len(m.Pix) != m.W*m.H {
			t.Fatalf("accepted %dx%d image with %d pixels", m.W, m.H, len(m.Pix))
		}
		for i, v := range m.Pix {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("pixel %d = %v outside [0,1]", i, v)
			}
		}
		var buf bytes.Buffer
		if err := WritePGM(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPGM(&buf)
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if back.W != m.W || back.H != m.H {
			t.Fatalf("round trip %dx%d -> %dx%d", m.W, m.H, back.W, back.H)
		}
		for i := range m.Pix {
			if math.Abs(back.Pix[i]-m.Pix[i]) > 1.0/255 {
				t.Fatalf("pixel %d: %v -> %v after round trip", i, m.Pix[i], back.Pix[i])
			}
		}
	})
}
