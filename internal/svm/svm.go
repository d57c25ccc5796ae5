// Package svm implements the linear support vector machines the paper
// uses to validate feature quality (Sec. 4): models comparable to
// LIBSVM/LIBLINEAR linear SVMs, trained by dual coordinate descent on
// the L1-loss dual (the LIBLINEAR algorithm), plus the hard-negative
// mining loop — "after the training of an SVM model is completed, we
// go through negative training images to filter false positives, to
// augment the SVM model as negatives".
package svm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/obs"
)

// Model is a linear decision function Score(x) = W.x + B; positive
// scores classify as person.
type Model struct {
	W []float64 `json:"w"`
	B float64   `json:"b"`
}

// Score returns the decision value for x, summed by dot.
func (m *Model) Score(x []float64) float64 {
	if len(x) != len(m.W) {
		//lint:allow errpanic feature-dimension mismatch is a pipeline-wiring bug; Score sits in the per-window hot path
		panic(fmt.Sprintf("svm: score input %d, want %d", len(x), len(m.W)))
	}
	return dot(m.B, m.W, x)
}

// dot returns s plus w[i]*x[i] for every i of w, added in index order.
// It computes four products per iteration and adds them in that order,
// so the sum is a one-product loop's bit for bit, at a speed that does
// not depend on where the linker places the loop (DESIGN §7).
func dot(s float64, w, x []float64) float64 {
	x = x[:len(w)]
	i := 0
	for ; i+4 <= len(w); i += 4 {
		s += w[i] * x[i]
		s += w[i+1] * x[i+1]
		s += w[i+2] * x[i+2]
		s += w[i+3] * x[i+3]
	}
	for ; i < len(w); i++ {
		s += w[i] * x[i]
	}
	return s
}

// axpy adds d*x[i] to w[i] for every i of w, four elements per
// iteration. Each element is one multiply and one add on its own
// weight, so any number per iteration gives the same weights.
func axpy(w []float64, d float64, x []float64) {
	x = x[:len(w)]
	i := 0
	for ; i+4 <= len(w); i += 4 {
		w[i] += d * x[i]
		w[i+1] += d * x[i+1]
		w[i+2] += d * x[i+2]
		w[i+3] += d * x[i+3]
	}
	for ; i < len(w); i++ {
		w[i] += d * x[i]
	}
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(m)
}

// TrainOptions controls dual coordinate descent.
type TrainOptions struct {
	// C is the soft-margin penalty (upper bound on dual variables).
	C float64
	// Epochs bounds the number of passes over the training set.
	Epochs int
	// Tol is the projected-gradient stopping tolerance.
	Tol float64
	// Seed drives the coordinate permutation.
	Seed int64
	// BiasScale is the value of the augmented bias feature (LIBLINEAR
	// convention); 0 disables the bias term.
	BiasScale float64
}

// DefaultTrainOptions returns the options used across the experiments.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{C: 1, Epochs: 60, Tol: 1e-3, Seed: 1, BiasScale: 1}
}

// Train fits a linear SVM to positive and negative descriptor sets.
func Train(pos, neg [][]float64, opt TrainOptions) (*Model, error) {
	var trainStart time.Time
	if obs.Enabled() {
		trainStart = time.Now()
	}
	if len(pos) == 0 || len(neg) == 0 {
		return nil, errors.New("svm: need both positive and negative examples")
	}
	dim := len(pos[0])
	for _, x := range pos {
		if len(x) != dim {
			return nil, errors.New("svm: inconsistent descriptor lengths")
		}
	}
	for _, x := range neg {
		if len(x) != dim {
			return nil, errors.New("svm: inconsistent descriptor lengths")
		}
	}
	switch {
	case !(opt.C > 0) || math.IsInf(opt.C, 1):
		return nil, fmt.Errorf("svm: C = %v must be positive and finite", opt.C)
	case !(opt.Tol >= 0) || math.IsInf(opt.Tol, 1):
		return nil, fmt.Errorf("svm: Tol = %v must be non-negative and finite", opt.Tol)
	case !(opt.BiasScale >= 0) || math.IsInf(opt.BiasScale, 1):
		return nil, fmt.Errorf("svm: BiasScale = %v must be non-negative and finite", opt.BiasScale)
	}
	if opt.Epochs <= 0 {
		opt.Epochs = 60
	}

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

	// Augmented weight vector: W plus bias coordinate.
	aug := dim
	if opt.BiasScale > 0 {
		aug++
	}
	w := make([]float64, aug)
	alpha := make([]float64, n)
	qd := make([]float64, n) // diagonal of Q: ||x_i||^2 (+ bias^2)
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
	iters := 0
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		iters = epoch + 1
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
			// G = y_i * w.x_i - 1
			g := -1.0
			wx := dot(0, w[:dim], x)
			if opt.BiasScale > 0 {
				wx += w[dim] * opt.BiasScale
			}
			g += yi * wx
			// Projected gradient.
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
				axpy(w[:dim], d, x)
				if opt.BiasScale > 0 {
					w[dim] += d * opt.BiasScale
				}
			}
		}
		if maxPG < opt.Tol {
			break
		}
	}

	if obs.Enabled() {
		obs.CounterM("svm.trainings").Inc()
		obs.CounterM("svm.train.iterations").Add(uint64(iters))
		obs.BucketHistogramM("svm.train.epochs_to_converge", obs.CountBuckets).Observe(float64(iters))
		obs.BucketHistogramM("svm.train.ms", obs.LatencyMSBuckets).Observe(float64(time.Since(trainStart).Microseconds()) / 1000)
		obs.GaugeM("svm.train.examples").Set(float64(n))
	}
	m := &Model{W: make([]float64, dim)}
	copy(m.W, w[:dim])
	if opt.BiasScale > 0 {
		m.B = w[dim] * opt.BiasScale
	}
	return m, nil
}

// HardNegativeMiner mines false positives against the current model.
// Given a model it returns the descriptors of windows the model
// wrongly scores positive on person-free imagery.
type HardNegativeMiner func(m *Model) [][]float64

// TrainHardNegative runs the paper's mining loop: train, scan negative
// images for false positives, add them to the negative set, retrain;
// `rounds` times or until no new false positives are found. It returns
// the final model and the number of mined negatives.
func TrainHardNegative(pos, neg [][]float64, mine HardNegativeMiner, rounds int, opt TrainOptions) (*Model, int, error) {
	model, err := Train(pos, neg, opt)
	if err != nil {
		return nil, 0, err
	}
	if mine == nil || rounds <= 0 {
		return model, 0, nil
	}
	mined := 0
	negs := append([][]float64(nil), neg...)
	for r := 0; r < rounds; r++ {
		hard := mine(model)
		if obs.Enabled() {
			obs.SeriesM("svm.mined_negatives").Append(float64(r), float64(len(hard)))
		}
		if len(hard) == 0 {
			break
		}
		mined += len(hard)
		negs = append(negs, hard...)
		model, err = Train(pos, negs, opt)
		if err != nil {
			return nil, mined, err
		}
	}
	if obs.Enabled() {
		obs.CounterM("svm.mined_negatives_total").Add(uint64(mined))
	}
	return model, mined, nil
}

// Accuracy scores a labeled evaluation set: fraction of pos scoring
// positive plus neg scoring negative over the total.
func Accuracy(m *Model, pos, neg [][]float64) float64 {
	if len(pos)+len(neg) == 0 {
		return 0
	}
	ok := 0
	for _, x := range pos {
		if m.Score(x) > 0 {
			ok++
		}
	}
	for _, x := range neg {
		if m.Score(x) <= 0 {
			ok++
		}
	}
	return float64(ok) / float64(len(pos)+len(neg))
}
