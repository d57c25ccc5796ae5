package dataset

import (
	"math"
	"testing"

	"repro/internal/hog"
	"repro/internal/imgproc"
)

func TestBoxIoU(t *testing.T) {
	a := Box{0, 0, 10, 10}
	if got := a.IoU(a); got != 1 {
		t.Errorf("self IoU = %v", got)
	}
	b := Box{10, 10, 10, 10}
	if got := a.IoU(b); got != 0 {
		t.Errorf("disjoint IoU = %v", got)
	}
	c := Box{5, 0, 10, 10}
	want := 50.0 / 150.0
	if got := a.IoU(c); math.Abs(got-want) > 1e-12 {
		t.Errorf("half overlap IoU = %v, want %v", got, want)
	}
}

func TestPositiveWindowShape(t *testing.T) {
	g := NewGenerator(1)
	p := g.Positive()
	if p.W != WindowW || p.H != WindowH {
		t.Fatalf("positive window %dx%d", p.W, p.H)
	}
	for _, v := range p.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("pixel out of range: %v", v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGenerator(42).Positive()
	b := NewGenerator(42).Positive()
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed produced different windows")
		}
	}
	c := NewGenerator(43).Positive()
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical windows")
	}
}

// verticalEnergyRatio measures how dominant near-vertical-edge
// orientations are in a window's gradient content: persons should
// exceed clutter on average.
func verticalEnergyRatio(m *imgproc.Image) float64 {
	g := imgproc.ComputeGradient(m)
	var vert, total float64
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			mag, ang := g.MagAngle(x, y)
			total += mag
			// Vertical edges have near-horizontal gradients.
			a := math.Abs(math.Cos(ang))
			if a > math.Cos(math.Pi/6) {
				vert += mag
			}
		}
	}
	if total == 0 {
		return 0
	}
	return vert / total
}

func TestPersonsAreVerticalEdgeDominant(t *testing.T) {
	g := NewGenerator(7)
	var pos, neg float64
	const n = 30
	for i := 0; i < n; i++ {
		pos += verticalEnergyRatio(g.Positive())
		neg += verticalEnergyRatio(g.Negative())
	}
	pos /= n
	neg /= n
	if pos <= neg {
		t.Errorf("positives not vertical-dominant: pos=%v neg=%v", pos, neg)
	}
}

func TestHoGSeparatesClasses(t *testing.T) {
	// A crude centroid classifier on HoG descriptors should separate
	// the synthetic classes well above chance — the premise of every
	// detection experiment downstream.
	g := NewGenerator(3)
	e, err := hog.NewExtractor(hog.Reference())
	if err != nil {
		t.Fatal(err)
	}
	var grid hog.Grid
	descriptor := func(w *imgproc.Image) []float64 {
		e.GridInto(&grid, w)
		d, err := e.DescriptorInto(nil, &grid, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	const n = 40
	var posD, negD [][]float64
	for i := 0; i < n; i++ {
		posD = append(posD, descriptor(g.Positive()))
		negD = append(negD, descriptor(g.Negative()))
	}
	dim := len(posD[0])
	centroidP := make([]float64, dim)
	centroidN := make([]float64, dim)
	for i := 0; i < n/2; i++ {
		for j := 0; j < dim; j++ {
			centroidP[j] += posD[i][j]
			centroidN[j] += negD[i][j]
		}
	}
	correct := 0
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]*2/float64(n)
			s += d * d
		}
		return s
	}
	for i := n / 2; i < n; i++ {
		if dist(posD[i], centroidP) < dist(posD[i], centroidN) {
			correct++
		}
		if dist(negD[i], centroidN) < dist(negD[i], centroidP) {
			correct++
		}
	}
	acc := float64(correct) / float64(n)
	if acc < 0.7 {
		t.Errorf("HoG centroid accuracy = %v, want >= 0.7", acc)
	}
}

func TestSceneGroundTruth(t *testing.T) {
	g := NewGenerator(9)
	s := g.Scene(640, 480, 4, 120, 300)
	if s.Image.W != 640 || s.Image.H != 480 {
		t.Fatalf("scene dims %dx%d", s.Image.W, s.Image.H)
	}
	if len(s.Truth) == 0 {
		t.Fatal("no persons placed")
	}
	for i, b := range s.Truth {
		if b.X < 0 || b.Y < 0 || b.X+b.W > 640 || b.Y+b.H > 480 {
			t.Errorf("truth %d out of bounds: %+v", i, b)
		}
		if b.H < 120 || b.H > 300 {
			t.Errorf("truth %d height %d outside [120,300]", i, b.H)
		}
		if b.W != b.H/2 {
			t.Errorf("truth %d aspect %dx%d", i, b.W, b.H)
		}
		for j := i + 1; j < len(s.Truth); j++ {
			if b.IoU(s.Truth[j]) > 0.05 {
				t.Errorf("truths %d and %d overlap", i, j)
			}
		}
	}
}

func TestSceneZeroPersons(t *testing.T) {
	g := NewGenerator(9)
	s := g.Scene(320, 240, 0, 100, 200)
	if len(s.Truth) != 0 {
		t.Errorf("expected empty truth, got %d", len(s.Truth))
	}
}

func TestTrainSetCounts(t *testing.T) {
	g := NewGenerator(5)
	ts := g.TrainSet(7, 11)
	if len(ts.Positives) != 7 || len(ts.Negatives) != 11 {
		t.Errorf("train set %d/%d", len(ts.Positives), len(ts.Negatives))
	}
}

func TestNegativeImageShape(t *testing.T) {
	g := NewGenerator(5)
	m := g.NegativeImage(300, 200)
	if m.W != 300 || m.H != 200 {
		t.Errorf("negative image %dx%d", m.W, m.H)
	}
}

func BenchmarkPositive(b *testing.B) {
	g := NewGenerator(1)
	for i := 0; i < b.N; i++ {
		_ = g.Positive()
	}
}

func BenchmarkScene640(b *testing.B) {
	g := NewGenerator(1)
	for i := 0; i < b.N; i++ {
		_ = g.Scene(640, 480, 3, 120, 300)
	}
}
