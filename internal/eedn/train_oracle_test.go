package eedn

import (
	"math"
	"math/rand"
	"testing"
)

// trainPerExample is the frozen trainer that the lane trainer replaced:
// one forward and one backward pass per example, each layer caching
// that example's input and pre-activations, and Update at the same
// batch boundaries. Dense layers run their old per-example passes
// (denseBackwardPerExample); a Conv2D runs its per-example preact and
// backward, which its lane calls run once per lane.
func trainPerExample(n *Network, xs, ys [][]float64, cfg TrainConfig) float64 {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LRDecay <= 0 {
		cfg.LRDecay = 1
	}
	ins := make([][]float64, len(n.Layers))
	pres := make([][]float64, len(n.Layers))
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(xs))
	lr := cfg.LR
	var epochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		epochLoss = 0
		inBatch := 0
		for _, idx := range order {
			x := xs[idx]
			for i, l := range n.Layers {
				ins[i] = append(ins[i][:0], x...)
				out := make([]float64, l.OutDim())
				threshold := true
				switch l := l.(type) {
				case *Dense:
					l.preact(x, out)
					threshold = !l.Linear
				case *Conv2D:
					l.preact(x, out)
				}
				pres[i] = append(pres[i][:0], out...)
				if threshold {
					for j, v := range out {
						if v >= 0 {
							out[j] = 1
						} else {
							out[j] = 0
						}
					}
				}
				x = out
			}
			grad := make([]float64, len(x))
			epochLoss += lossAndGrad(cfg.Loss, x, ys[idx], grad)
			for i := len(n.Layers) - 1; i >= 0; i-- {
				switch l := n.Layers[i].(type) {
				case *Dense:
					grad = denseBackwardPerExample(l, ins[i], pres[i], grad)
				case *Conv2D:
					gradIn := make([]float64, l.InDim())
					l.backward(ins[i], pres[i], grad, gradIn)
					grad = gradIn
				}
			}
			inBatch++
			if inBatch == cfg.BatchSize {
				n.update(lr, cfg.Momentum, inBatch)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			n.update(lr, cfg.Momentum, inBatch)
		}
		epochLoss /= float64(len(xs))
		lr *= cfg.LRDecay
	}
	return epochLoss
}

// denseBackwardPerExample is the frozen per-example Dense backward
// pass: it accumulates the parameter gradients of one example from its
// input in, pre-activations pre and output gradient, reading the
// trinary weights from Hidden, and returns its input gradient.
func denseBackwardPerExample(d *Dense, in, pre, gradOut []float64) []float64 {
	norm := 1 / math.Sqrt(float64(d.In))
	gradIn := make([]float64, d.In)
	for j := 0; j < d.Out; j++ {
		g := gradOut[j]
		if !d.Linear {
			g *= steWindow(pre[j])
		}
		if g == 0 {
			continue
		}
		d.gradB[j] += g
		row := d.Hidden[j*d.In : (j+1)*d.In]
		gRow := d.gradW[j*d.In : (j+1)*d.In]
		gn := g * norm
		for i := range row {
			gRow[i] += gn * in[i]
			switch {
			case row[i] >= TrinaryDeadZone:
				gradIn[i] += gn
			case row[i] <= -TrinaryDeadZone:
				gradIn[i] -= gn
			}
		}
	}
	return gradIn
}

// trainedState returns a layer's hidden weights, biases and their
// momentum velocities.
func trainedState(l Layer) [4][]float64 {
	switch l := l.(type) {
	case *Dense:
		return [4][]float64{l.Hidden, l.Bias, l.vel, l.velB}
	case *Conv2D:
		return [4][]float64{l.Hidden, l.Bias, l.vel, l.velB}
	}
	return [4][]float64{}
}

// sameState fails t at the first hidden weight, bias or velocity in
// which two networks of the same shape differ by bits.
func sameState(t *testing.T, got, want *Network) {
	t.Helper()
	for i := range got.Layers {
		g, w := trainedState(got.Layers[i]), trainedState(want.Layers[i])
		for k, name := range [4]string{"Hidden", "Bias", "vel", "velB"} {
			for j := range g[k] {
				if !sameBits(g[k][j], w[k][j]) {
					t.Fatalf("layer %d %s[%d] = %v (%#x), per-example trainer %v (%#x)",
						i, name, j, g[k][j], math.Float64bits(g[k][j]), w[k][j], math.Float64bits(w[k][j]))
				}
			}
		}
	}
}

// TestTrainMatchesPerExample holds the lane trainer to the frozen
// per-example trainer bit for bit after three epochs, on the parrot
// net, a classifier stack and the monolithic conv net. Every example
// count leaves a partial last batch and a partial last group of lanes,
// and the batch sizes give groups of one to four examples.
func TestTrainMatchesPerExample(t *testing.T) {
	for _, c := range []struct {
		name     string
		build    func(rng *rand.Rand) (*Network, error)
		examples int
		batch    int
		loss     Loss
	}{
		{"parrot", func(rng *rand.Rand) (*Network, error) { return NewParrotNet(18, 40, rng) }, 37, 16, LossHinge},
		{"parrot-mse", func(rng *rand.Rand) (*Network, error) { return NewParrotNet(6, 70, rng) }, 23, 6, LossMSE},
		{"classifier", func(rng *rand.Rand) (*Network, error) { return NewClassifierNet(150, 67, 2, rng) }, 30, 7, LossHinge},
		{"monolithic", NewMonolithicNet, 21, 16, LossHinge},
	} {
		t.Run(c.name, func(t *testing.T) {
			lanes, err := c.build(rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			oracle, _ := c.build(rand.New(rand.NewSource(5)))
			rng := rand.New(rand.NewSource(6))
			xs := make([][]float64, c.examples)
			ys := make([][]float64, c.examples)
			for i := range xs {
				xs[i] = make([]float64, lanes.InDim())
				for k := range xs[i] {
					if rng.Intn(4) > 0 {
						xs[i][k] = rng.Float64()
					}
				}
				ys[i] = make([]float64, lanes.OutDim())
				for k := range ys[i] {
					switch {
					case c.loss == LossMSE:
						ys[i][k] = rng.Float64()
					case (i+k)%2 == 0:
						ys[i][k] = 1
					default:
						ys[i][k] = -1
					}
				}
			}
			cfg := DefaultTrainConfig()
			cfg.Epochs, cfg.BatchSize, cfg.Loss = 3, c.batch, c.loss
			got, err := lanes.Train(xs, ys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := trainPerExample(oracle, xs, ys, cfg)
			if !sameBits(got, want) {
				t.Errorf("loss %v, per-example trainer %v", got, want)
			}
			sameState(t, lanes, oracle)
		})
	}
}
