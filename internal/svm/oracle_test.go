package svm_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hog"
	"repro/internal/parrot"
	"repro/internal/svm"
)

// trainOneProduct is the frozen trainer that the dot and axpy kernels
// replaced: dual coordinate descent with one product per iteration in
// each visit's dot product and weight update.
func trainOneProduct(pos, neg [][]float64, opt svm.TrainOptions) *svm.Model {
	if opt.Epochs <= 0 {
		opt.Epochs = 60
	}
	dim := len(pos[0])
	n := len(pos) + len(neg)
	xs := make([][]float64, 0, n)
	ys := make([]float64, 0, n)
	for _, x := range pos {
		xs = append(xs, x)
		ys = append(ys, 1)
	}
	for _, x := range neg {
		xs = append(xs, x)
		ys = append(ys, -1)
	}
	aug := dim
	if opt.BiasScale > 0 {
		aug++
	}
	w := make([]float64, aug)
	alpha := make([]float64, n)
	qd := make([]float64, n)
	for i, x := range xs {
		var q float64
		for _, v := range x {
			q += v * v
		}
		if opt.BiasScale > 0 {
			q += opt.BiasScale * opt.BiasScale
		}
		qd[i] = q
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	order := rng.Perm(n)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		maxPG := 0.0
		for _, i := range order {
			if qd[i] == 0 {
				continue
			}
			x := xs[i]
			yi := ys[i]
			g := -1.0
			dot := 0.0
			for k, v := range x {
				dot += w[k] * v
			}
			if opt.BiasScale > 0 {
				dot += w[dim] * opt.BiasScale
			}
			g += yi * dot
			pg := g
			if alpha[i] <= 0 && g > 0 {
				pg = 0
			}
			if alpha[i] >= opt.C && g < 0 {
				pg = 0
			}
			if pg > maxPG {
				maxPG = pg
			} else if -pg > maxPG {
				maxPG = -pg
			}
			if pg == 0 {
				continue
			}
			old := alpha[i]
			na := old - g/qd[i]
			if na < 0 {
				na = 0
			}
			if na > opt.C {
				na = opt.C
			}
			alpha[i] = na
			d := (na - old) * yi
			if d != 0 {
				for k, v := range x {
					w[k] += d * v
				}
				if opt.BiasScale > 0 {
					w[dim] += d * opt.BiasScale
				}
			}
		}
		if maxPG < opt.Tol {
			break
		}
	}
	m := &svm.Model{W: make([]float64, dim)}
	copy(m.W, w[:dim])
	if opt.BiasScale > 0 {
		m.B = w[dim] * opt.BiasScale
	}
	return m
}

// sameBits reports whether a and b have the same bits, or are both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameModel fails t at the first weight, or the bias, in which Train's
// model differs from the frozen trainer's.
func sameModel(t *testing.T, what string, got, want *svm.Model) {
	t.Helper()
	if len(got.W) != len(want.W) {
		t.Fatalf("%s: %d weights, frozen trainer %d", what, len(got.W), len(want.W))
	}
	for i := range got.W {
		if !sameBits(got.W[i], want.W[i]) {
			t.Fatalf("%s: W[%d] = %v (%#x), frozen trainer %v (%#x)",
				what, i, got.W[i], math.Float64bits(got.W[i]), want.W[i], math.Float64bits(want.W[i]))
		}
	}
	if !sameBits(got.B, want.B) {
		t.Fatalf("%s: B = %v (%#x), frozen trainer %v (%#x)",
			what, got.B, math.Float64bits(got.B), want.B, math.Float64bits(want.B))
	}
}

// TestTrainMatchesOracle holds Train to the frozen trainer on the
// training sets the repository benchmark co-trains its SVM heads on:
// seed 1, 60 positive and 120 negative windows, L2-normalized
// descriptors of the FPGA-HOG, NApprox and parrot extractors, the
// parrot trained as the benchmark trains it.
func TestTrainMatchesOracle(t *testing.T) {
	ts := dataset.NewGenerator(1).TrainSet(60, 120)
	for _, p := range []core.Paradigm{core.ParadigmFPGA, core.ParadigmNApprox, core.ParadigmParrot} {
		var ext core.Extractor
		var err error
		if p == core.ParadigmParrot {
			opt := parrot.DefaultTrainOptions()
			opt.Samples, opt.Hidden, opt.Train.Epochs = 1200, 64, 15
			var pe *parrot.Extractor
			if pe, _, err = parrot.Train(opt); err == nil {
				err = pe.SetNorm(hog.NormL2)
				ext = core.WrapParrot(pe)
			}
		} else {
			ext, err = core.NewExtractor(p, hog.NormL2)
		}
		if err != nil {
			t.Fatal(err)
		}
		pos, err := core.DescriptorSet(ext, ts.Positives)
		if err != nil {
			t.Fatal(err)
		}
		neg, err := core.DescriptorSet(ext, ts.Negatives)
		if err != nil {
			t.Fatal(err)
		}
		opt := svm.DefaultTrainOptions()
		got, err := svm.Train(pos, neg, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameModel(t, p.String(), got, trainOneProduct(pos, neg, opt))
	}
}

// fuzzValues maps a byte to a feature value. Bytes below 200 give
// nonzero values of varied mantissas over 22 binary orders of
// magnitude, so a sum taken in another order rounds differently; the
// rest cycle through signed zeros, subnormals, the largest finite
// values, ±Inf and NaN.
var fuzzValues = func() (t [256]float64) {
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
		math.MaxFloat64, -1e308, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for b := range t {
		if b < 200 {
			t[b] = math.Ldexp(float64(b%25)-12.3, 3*(b/25)-12)
		} else {
			t[b] = specials[(b-200)%len(specials)]
		}
	}
	return t
}()

// FuzzTrainMatchesOracle holds Train to the frozen one-product trainer
// bit for bit on small problems: dimensions 1 to 9, so every remainder
// of the four-product loops occurs, 1 to 6 examples of each class,
// BiasScale 0 or 1 and three penalties, with feature values read
// through fuzzValues from vals, cycling.
func FuzzTrainMatchesOracle(f *testing.F) {
	f.Add(uint16(0), int64(1), []byte{7, 50, 120, 199})
	f.Add(uint16(8+9*5+54*5+324), int64(2), []byte{3, 90, 140, 60, 11, 180, 25})
	f.Add(uint16(3+9*2+54*1+648), int64(3), []byte{200, 201, 12, 37, 202, 203, 99})
	f.Add(uint16(6+9*3+54*4+324+1296), int64(4), []byte{208, 209, 210, 5, 77, 150})
	f.Fuzz(func(t *testing.T, shape uint16, seed int64, vals []byte) {
		dim := int(shape%9) + 1
		nPos := int(shape/9%6) + 1
		nNeg := int(shape/54%6) + 1
		opt := svm.DefaultTrainOptions()
		opt.Seed = seed
		opt.BiasScale = float64(shape / 324 % 2)
		opt.C = [...]float64{1, 0.01, 100}[shape/648%3]
		k := 0
		sample := func() []float64 {
			x := make([]float64, dim)
			for i := range x {
				if len(vals) > 0 {
					x[i] = fuzzValues[vals[k%len(vals)]]
					k++
				}
			}
			return x
		}
		pos := make([][]float64, nPos)
		neg := make([][]float64, nNeg)
		for i := range pos {
			pos[i] = sample()
		}
		for i := range neg {
			neg[i] = sample()
		}
		got, err := svm.Train(pos, neg, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameModel(t, "fuzz", got, trainOneProduct(pos, neg, opt))
	})
}
