package imgproc

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePGM encodes m as a binary (P5) PGM with 8-bit depth. Pixels are
// clamped to [0,1] and scaled to 0..255.
func WritePGM(w io.Writer, m *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", m.W, m.H); err != nil {
		return err
	}
	buf := make([]byte, m.W)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			v := m.Pix[y*m.W+x]
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			buf[x] = byte(v*255 + 0.5)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPGM decodes a binary (P5) PGM into an Image with pixels in [0,1].
// The pixel slice grows as samples arrive, so a header that claims more
// pixels than the input holds fails on the short data without first
// allocating for them. Samples above the header's maxval are rejected.
func ReadPGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic, err := pgmToken(br)
	if err != nil {
		return nil, err
	}
	if magic != "P5" {
		return nil, fmt.Errorf("imgproc: unsupported PGM magic %q", magic)
	}
	dims := [3]int{}
	for i := range dims {
		tok, err := pgmToken(br)
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(tok)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("imgproc: bad PGM header token %q", tok)
		}
		dims[i] = v
	}
	w, h, maxv := dims[0], dims[1], dims[2]
	if maxv > 255 {
		return nil, fmt.Errorf("imgproc: unsupported PGM maxval %d", maxv)
	}
	if h > math.MaxInt/w {
		return nil, fmt.Errorf("imgproc: PGM dimensions %dx%d overflow", w, h)
	}
	n := w * h
	var chunk [4096]byte
	pix := make([]float64, 0, min(n, len(chunk)))
	for len(pix) < n {
		k := min(n-len(pix), len(chunk))
		if _, err := io.ReadFull(br, chunk[:k]); err != nil {
			return nil, fmt.Errorf("imgproc: short PGM data: %w", err)
		}
		for _, b := range chunk[:k] {
			if int(b) > maxv {
				return nil, fmt.Errorf("imgproc: PGM sample %d above maxval %d", b, maxv)
			}
			pix = append(pix, float64(b)/float64(maxv))
		}
	}
	return &Image{W: w, H: h, Pix: pix}, nil
}

// pgmToken reads the next whitespace-delimited token, skipping '#'
// comments, per the Netpbm grammar. The single whitespace byte after
// the maxval token is consumed by the delimiter read here.
func pgmToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if len(tok) > 0 && err == io.EOF {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#':
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}
