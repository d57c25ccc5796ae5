// Package dataset generates the synthetic pedestrian data that stands
// in for the INRIA Person Dataset (not redistributable offline; see
// DESIGN.md substitutions). The generator is deterministic per seed
// and produces:
//
//   - positive 64x128 windows: articulated person silhouettes (head,
//     torso, two legs, two arms) with randomized pose, contrast
//     polarity, clothing bands, blur and noise over textured
//     backgrounds;
//   - negative windows and full negative images: gradient-rich clutter
//     (texture patches, bars, blobs, ramps) with no people;
//   - test scenes: larger images with zero or more persons at varying
//     scales plus ground-truth boxes, for the sliding-window detection
//     experiments of Figs. 4 and 5.
//
// What matters for the paper's comparisons is that persons are
// coherent, roughly vertical, limb-structured gradient objects while
// negatives are isotropic clutter — the statistics HoG was designed
// around.
package dataset

import (
	"math"
	"math/rand"

	"repro/internal/imgproc"
)

// WindowW and WindowH are the detection window dimensions.
const (
	WindowW = 64
	WindowH = 128
)

// Box is an axis-aligned ground-truth or detection rectangle.
type Box struct {
	X, Y, W, H int
}

// IoU returns the intersection-over-union of two boxes.
func (b Box) IoU(o Box) float64 {
	x0 := max(b.X, o.X)
	y0 := max(b.Y, o.Y)
	x1 := min(b.X+b.W, o.X+o.W)
	y1 := min(b.Y+b.H, o.Y+o.H)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	inter := float64((x1 - x0) * (y1 - y0))
	union := float64(b.W*b.H+o.W*o.H) - inter
	return inter / union
}

// Generator produces deterministic synthetic data.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a generator seeded for reproducibility.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// fillBackground paints a low-frequency texture plus fine noise.
func (g *Generator) fillBackground(m *imgproc.Image) {
	base := 0.25 + g.rng.Float64()*0.5
	fx := 0.02 + g.rng.Float64()*0.15
	fy := 0.02 + g.rng.Float64()*0.15
	px := g.rng.Float64() * 6
	py := g.rng.Float64() * 6
	amp := 0.05 + g.rng.Float64()*0.15
	noise := 0.01 + g.rng.Float64()*0.04
	// The texture is amp*sin(x)*cos(y), multiplied left to right, so
	// amp*sin is taken once per column and cos once per row with the
	// same roundings; the noise draws stay in pixel order.
	col := make([]float64, m.W)
	for x := range col {
		col[x] = amp * math.Sin(float64(x)*fx+px)
	}
	for y := 0; y < m.H; y++ {
		c := math.Cos(float64(y)*fy + py)
		row := m.Pix[y*m.W : (y+1)*m.W]
		for x, a := range col {
			v := base + a*c
			v += (g.rng.Float64() - 0.5) * 2 * noise
			row[x] = v
		}
	}
}

// fillRect paints a solid rectangle clipped to the image.
func fillRect(m *imgproc.Image, x0, y0, w, h int, v float64) {
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			m.Set(x, y, v)
		}
	}
}

// fillEllipse paints a solid ellipse centered at (cx, cy).
func fillEllipse(m *imgproc.Image, cx, cy, rx, ry int, v float64) {
	if rx <= 0 || ry <= 0 {
		return
	}
	for y := cy - ry; y <= cy+ry; y++ {
		for x := cx - rx; x <= cx+rx; x++ {
			dx := float64(x-cx) / float64(rx)
			dy := float64(y-cy) / float64(ry)
			if dx*dx+dy*dy <= 1 {
				m.Set(x, y, v)
			}
		}
	}
}

// drawPerson paints an articulated silhouette whose bounding box is
// (x0, y0, w, h) in m. Contrast is the person-background brightness
// difference (signed).
func (g *Generator) drawPerson(m *imgproc.Image, x0, y0, w, h int, bg float64) {
	contrast := 0.25 + g.rng.Float64()*0.35
	if g.rng.Intn(2) == 0 {
		contrast = -contrast
	}
	body := bg + contrast
	if body < 0.02 {
		body = 0.02
	}
	if body > 0.98 {
		body = 0.98
	}
	// Proportions relative to the box.
	headR := h / 10
	cx := x0 + w/2
	headCy := y0 + headR + h/40
	torsoTop := headCy + headR
	torsoH := int(float64(h) * 0.38)
	torsoW := int(float64(w) * (0.38 + g.rng.Float64()*0.14))
	legTop := torsoTop + torsoH
	legH := y0 + h - legTop
	legW := torsoW / 2
	legGap := int(float64(legW) * (0.3 + g.rng.Float64()*0.9))

	// Head.
	fillEllipse(m, cx, headCy, headR, headR+h/60, body)
	// Torso.
	fillRect(m, cx-torsoW/2, torsoTop, torsoW, torsoH, body)
	// Arms: vertical bars beside the torso, slightly angled via offset
	// segments.
	armW := max(2, torsoW/4)
	armH := int(float64(torsoH) * (0.8 + g.rng.Float64()*0.3))
	armOff := g.rng.Intn(armW + 1)
	fillRect(m, cx-torsoW/2-armW, torsoTop+h/40, armW, armH/2, body)
	fillRect(m, cx-torsoW/2-armW-armOff, torsoTop+h/40+armH/2, armW, armH/2, body)
	fillRect(m, cx+torsoW/2, torsoTop+h/40, armW, armH/2, body)
	fillRect(m, cx+torsoW/2+armOff, torsoTop+h/40+armH/2, armW, armH/2, body)
	// Legs: two bars with a gap, one possibly mid-stride.
	stride := g.rng.Intn(max(1, legW))
	fillRect(m, cx-legGap/2-legW, legTop, legW, legH, body)
	fillRect(m, cx+legGap/2-stride/2, legTop, legW, legH, body)
	// Clothing band: torso split into two tones half the time.
	if g.rng.Intn(2) == 0 {
		tone := body - contrast*0.5
		fillRect(m, cx-torsoW/2, torsoTop+torsoH/2, torsoW, torsoH/2, tone)
	}
}

// Positive returns one 64x128 person window.
func (g *Generator) Positive() *imgproc.Image {
	m := imgproc.New(WindowW, WindowH)
	g.fillBackground(m)
	bg := meanOf(m)
	// Person occupies most of the window with a margin, like INRIA
	// normalized crops.
	mw := WindowW - 16 - g.rng.Intn(12)
	mh := WindowH - 16 - g.rng.Intn(16)
	x0 := (WindowW-mw)/2 + g.rng.Intn(5) - 2
	y0 := (WindowH-mh)/2 + g.rng.Intn(5) - 2
	g.drawPerson(m, x0, y0, mw, mh, bg)
	imgproc.BoxBlur(m, 1)
	g.addNoise(m, 0.02)
	m.Clamp01()
	return m
}

// Negative returns one 64x128 clutter window with no person.
func (g *Generator) Negative() *imgproc.Image {
	m := imgproc.New(WindowW, WindowH)
	g.fillBackground(m)
	g.scatterClutter(m, 2+g.rng.Intn(5))
	imgproc.BoxBlur(m, 1)
	g.addNoise(m, 0.02)
	m.Clamp01()
	return m
}

// NegativeImage returns a larger clutter image (for hard negative
// mining and FPPI evaluation on person-free images).
func (g *Generator) NegativeImage(w, h int) *imgproc.Image {
	m := imgproc.New(w, h)
	g.fillBackground(m)
	g.scatterClutter(m, 4+g.rng.Intn(10))
	imgproc.BoxBlur(m, 1)
	g.addNoise(m, 0.02)
	m.Clamp01()
	return m
}

// scatterClutter adds n random distractor shapes.
func (g *Generator) scatterClutter(m *imgproc.Image, n int) {
	for i := 0; i < n; i++ {
		v := g.rng.Float64()
		x := g.rng.Intn(m.W)
		y := g.rng.Intn(m.H)
		switch g.rng.Intn(4) {
		case 0: // bar
			if g.rng.Intn(2) == 0 {
				fillRect(m, x, y, 2+g.rng.Intn(8), 10+g.rng.Intn(m.H/2), v)
			} else {
				fillRect(m, x, y, 10+g.rng.Intn(m.W/2), 2+g.rng.Intn(8), v)
			}
		case 1: // blob
			fillEllipse(m, x, y, 3+g.rng.Intn(12), 3+g.rng.Intn(12), v)
		case 2: // block
			fillRect(m, x, y, 5+g.rng.Intn(20), 5+g.rng.Intn(20), v)
		default: // stripes
			sw := 2 + g.rng.Intn(4)
			for k := 0; k < 4; k++ {
				fillRect(m, x+k*2*sw, y, sw, 8+g.rng.Intn(24), v)
			}
		}
	}
}

// addNoise perturbs every pixel by uniform noise of the given
// amplitude.
func (g *Generator) addNoise(m *imgproc.Image, amp float64) {
	for i := range m.Pix {
		m.Pix[i] += (g.rng.Float64() - 0.5) * 2 * amp
	}
}

func meanOf(m *imgproc.Image) float64 {
	var s float64
	for _, v := range m.Pix {
		s += v
	}
	return s / float64(len(m.Pix))
}

// Scene is a test image with ground truth.
type Scene struct {
	Image *imgproc.Image
	Truth []Box
}

// Scene generates a w x h image containing nPersons persons at scales
// between minH and maxH pixels tall, avoiding overlaps, plus clutter.
func (g *Generator) Scene(w, h, nPersons, minH, maxH int) Scene {
	m := imgproc.New(w, h)
	g.fillBackground(m)
	g.scatterClutter(m, 3+g.rng.Intn(6))
	bg := meanOf(m)
	var truth []Box
	for i := 0; i < nPersons; i++ {
		var b Box
		placed := false
		for attempt := 0; attempt < 40 && !placed; attempt++ {
			ph := minH + g.rng.Intn(max(1, maxH-minH+1))
			pw := ph / 2
			if pw >= w || ph >= h {
				continue
			}
			b = Box{X: g.rng.Intn(w - pw), Y: g.rng.Intn(h - ph), W: pw, H: ph}
			placed = true
			for _, t := range truth {
				if b.IoU(t) > 0.05 {
					placed = false
					break
				}
			}
		}
		if !placed {
			continue
		}
		// The drawn person fills the central portion of the truth box,
		// mirroring the margin of training crops.
		mx := b.W / 8
		my := b.H / 16
		g.drawPerson(m, b.X+mx, b.Y+my, b.W-2*mx, b.H-2*my, bg)
		truth = append(truth, b)
	}
	imgproc.BoxBlur(m, 1)
	g.addNoise(m, 0.02)
	m.Clamp01()
	return Scene{Image: m, Truth: truth}
}

// TrainSet bundles generated training windows.
type TrainSet struct {
	Positives []*imgproc.Image
	Negatives []*imgproc.Image
}

// TrainSet generates nPos positives and nNeg negatives.
func (g *Generator) TrainSet(nPos, nNeg int) TrainSet {
	ts := TrainSet{}
	for i := 0; i < nPos; i++ {
		ts.Positives = append(ts.Positives, g.Positive())
	}
	for i := 0; i < nNeg; i++ {
		ts.Negatives = append(ts.Negatives, g.Negative())
	}
	return ts
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
