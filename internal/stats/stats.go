// Package stats provides the statistical utilities used across the
// reproduction: correlation between feature vectors (the paper's 99.5%
// hardware/software validation), miss-rate/false-positives-per-image
// curves (Dollar et al. evaluation protocol used in Figs. 4 and 5), and
// basic descriptive statistics.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned when paired series differ in length.
var ErrLengthMismatch = errors.New("stats: series length mismatch")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns an error if the lengths differ or either series is constant
// (correlation undefined).
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	if len(x) == 0 {
		return 0, errors.New("stats: empty series")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: constant series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MSE returns the mean squared error between x and y.
func MSE(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	if len(x) == 0 {
		return 0, nil
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s / float64(len(x)), nil
}

// Point is one point on a 2-D curve.
type Point struct {
	X, Y float64
}

// Curve is a named series of points, e.g. one line in Fig. 4 or Fig. 5.
type Curve struct {
	Name   string
	Points []Point
}

// SortByX sorts the curve's points by ascending X.
func (c *Curve) SortByX() {
	sort.Slice(c.Points, func(i, j int) bool { return c.Points[i].X < c.Points[j].X })
}

// InterpolateY returns the Y value at x using piecewise-linear
// interpolation in log-X space (the convention for FPPI curves). Points
// must be sorted by X. X values must be positive. Outside the curve's
// domain the nearest endpoint Y is returned.
func (c *Curve) InterpolateY(x float64) float64 {
	pts := c.Points
	if len(pts) == 0 {
		return math.NaN()
	}
	if x <= pts[0].X {
		return pts[0].Y
	}
	if x >= pts[len(pts)-1].X {
		return pts[len(pts)-1].Y
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].X >= x })
	a, b := pts[i-1], pts[i]
	if a.X <= 0 || b.X <= 0 || x <= 0 {
		// Fall back to linear space for non-positive X.
		t := (x - a.X) / (b.X - a.X)
		return a.Y + t*(b.Y-a.Y)
	}
	t := (math.Log(x) - math.Log(a.X)) / (math.Log(b.X) - math.Log(a.X))
	return a.Y + t*(b.Y-a.Y)
}

// LogAvgMissRate computes the log-average miss rate over the FPPI range
// [lo, hi], the scalar summary Dollar et al. propose for pedestrian
// detection curves: the miss rate is sampled at n points evenly spaced
// in log(FPPI) and the geometric-mean-style average of the (linear)
// miss rates is returned. Miss rates are clamped to [1e-4, 1] before
// averaging so that perfect segments do not drive the average to zero.
func LogAvgMissRate(c *Curve, lo, hi float64, n int) float64 {
	if n <= 0 || lo <= 0 || hi <= lo || len(c.Points) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		f := lo * math.Pow(hi/lo, float64(i)/float64(n-1))
		if n == 1 {
			f = lo
		}
		mr := c.InterpolateY(f)
		if mr < 1e-4 {
			mr = 1e-4
		}
		if mr > 1 {
			mr = 1
		}
		sum += math.Log(mr)
	}
	return math.Exp(sum / float64(n))
}

// Histogram counts xs into nbins equal-width bins over [lo, hi). Values
// outside the range are clamped into the first/last bin.
func Histogram(xs []float64, nbins int, lo, hi float64) []int {
	h := make([]int, nbins)
	if nbins == 0 || hi <= lo {
		return h
	}
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		h[b]++
	}
	return h
}

// Normalize scales xs in place to unit L2 norm; a zero vector is left
// unchanged. It returns the original norm.
func Normalize(xs []float64) float64 {
	var n float64
	for _, x := range xs {
		n += x * x
	}
	n = math.Sqrt(n)
	if n == 0 {
		return 0
	}
	for i := range xs {
		xs[i] /= n
	}
	return n
}

// ArgMax returns the index of the maximum element, or -1 for empty.
// Ties resolve to the lowest index.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Quantile returns the q-quantile (0..1) of xs by linear interpolation
// on the sorted copy. Empty input returns NaN.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + frac*(s[i+1]-s[i])
}
