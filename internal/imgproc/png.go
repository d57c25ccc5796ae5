package imgproc

import (
	"image"
	"image/color"
	"image/png"
	"io"
)

// WritePNG encodes m as an 8-bit grayscale PNG.
func WritePNG(w io.Writer, m *Image) error {
	img := image.NewGray(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			v := m.Pix[y*m.W+x]
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			img.SetGray(x, y, color.Gray{Y: uint8(v*255 + 0.5)})
		}
	}
	return png.Encode(w, img)
}
