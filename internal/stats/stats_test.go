package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil || !almostEq(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, %v; want 1", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(x, neg)
	if err != nil || !almostEq(r, -1, 1e-12) {
		t.Errorf("Pearson anti = %v, %v; want -1", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("constant series should error")
	}
	if _, err := Pearson(nil, nil); err == nil {
		t.Error("empty should error")
	}
}

func TestPearsonInvariantToAffine(t *testing.T) {
	f := func(seed uint8) bool {
		n := 32
		x := make([]float64, n)
		y := make([]float64, n)
		s := uint64(seed) + 1
		for i := range x {
			s = s*6364136223846793005 + 1442695040888963407
			x[i] = float64(s%1000) / 100
			s = s*6364136223846793005 + 1442695040888963407
			y[i] = x[i] + float64(s%100)/50
		}
		r1, err1 := Pearson(x, y)
		x2 := make([]float64, n)
		for i := range x {
			x2[i] = 3*x[i] + 7 // positive affine transform preserves r
		}
		r2, err2 := Pearson(x2, y)
		if err1 != nil || err2 != nil {
			return true
		}
		return almostEq(r1, r2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMSE(t *testing.T) {
	m, err := MSE([]float64{1, 2}, []float64{3, 2})
	if err != nil || m != 2 {
		t.Errorf("MSE = %v, %v; want 2", m, err)
	}
	if _, err := MSE([]float64{1}, []float64{}); err != ErrLengthMismatch {
		t.Error("want length mismatch")
	}
}

func TestInterpolateYLogSpace(t *testing.T) {
	c := &Curve{Points: []Point{{0.01, 0.8}, {1, 0.4}}}
	// At geometric midpoint x=0.1, log interpolation gives midpoint Y.
	got := c.InterpolateY(0.1)
	if !almostEq(got, 0.6, 1e-12) {
		t.Errorf("InterpolateY(0.1) = %v, want 0.6", got)
	}
	// Clamping outside domain.
	if got := c.InterpolateY(1e-6); got != 0.8 {
		t.Errorf("below domain = %v", got)
	}
	if got := c.InterpolateY(100); got != 0.4 {
		t.Errorf("above domain = %v", got)
	}
}

func TestLogAvgMissRate(t *testing.T) {
	// Constant miss rate -> log average equals it.
	c := &Curve{Points: []Point{{0.001, 0.25}, {10, 0.25}}}
	got := LogAvgMissRate(c, 0.01, 1, 9)
	if !almostEq(got, 0.25, 1e-9) {
		t.Errorf("constant LAMR = %v, want 0.25", got)
	}
	if !math.IsNaN(LogAvgMissRate(c, 0, 1, 9)) {
		t.Error("lo=0 should give NaN")
	}
	if !math.IsNaN(LogAvgMissRate(&Curve{}, 0.01, 1, 9)) {
		t.Error("empty curve should give NaN")
	}
}

func TestLogAvgMissRateOrdersCurves(t *testing.T) {
	better := &Curve{Points: []Point{{0.001, 0.10}, {10, 0.05}}}
	worse := &Curve{Points: []Point{{0.001, 0.50}, {10, 0.30}}}
	b := LogAvgMissRate(better, 0.01, 1, 9)
	w := LogAvgMissRate(worse, 0.01, 1, 9)
	if b >= w {
		t.Errorf("LAMR ordering violated: better=%v worse=%v", b, w)
	}
}

func TestSortByX(t *testing.T) {
	c := &Curve{Points: []Point{{3, 1}, {1, 2}, {2, 3}}}
	c.SortByX()
	if c.Points[0].X != 1 || c.Points[2].X != 3 {
		t.Errorf("SortByX result %v", c.Points)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 0.5, 1.5, 2.5, 9.9, -5, 100}, 10, 0, 10)
	if h[0] != 3 { // 0, 0.5, -5(clamped)
		t.Errorf("bin0 = %d, want 3", h[0])
	}
	if h[9] != 2 { // 9.9, 100(clamped)
		t.Errorf("bin9 = %d, want 2", h[9])
	}
	if h[1] != 1 || h[2] != 1 {
		t.Errorf("bins = %v", h)
	}
	if got := Histogram(nil, 0, 0, 1); len(got) != 0 {
		t.Errorf("nbins=0 -> %v", got)
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{3, 4}
	n := Normalize(v)
	if n != 5 || !almostEq(v[0], 0.6, 1e-12) || !almostEq(v[1], 0.8, 1e-12) {
		t.Errorf("Normalize -> %v norm %v", v, n)
	}
	z := []float64{0, 0}
	if n := Normalize(z); n != 0 || z[0] != 0 {
		t.Errorf("zero vector normalize -> %v norm %v", z, n)
	}
}

func TestNormalizePropertyUnitNorm(t *testing.T) {
	f := func(a, b, c int16) bool {
		v := []float64{float64(a), float64(b), float64(c)}
		if v[0] == 0 && v[1] == 0 && v[2] == 0 {
			return true
		}
		Normalize(v)
		var n float64
		for _, x := range v {
			n += x * x
		}
		return almostEq(math.Sqrt(n), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 3, 5}); got != 1 {
		t.Errorf("ArgMax ties = %d, want 1", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func BenchmarkPearson(b *testing.B) {
	n := 7560 // descriptor length in the paper
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 97)
		y[i] = float64((i*13 + 5) % 89)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Pearson(x, y)
	}
}
