package eedn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one stage of an Eedn network.
type Layer interface {
	Forward(x []float64) []float64
	Update(lr, momentum float64, batch int)
	InDim() int
	OutDim() int

	// trainForward and trainBackward are the training passes of one
	// group of up to Lanes examples, which Network.Train describes.
	trainForward(x []float64, f []uint64, n int) ([]float64, []uint64)
	trainBackward(gradOut []float64, n int, needIn bool) []float64
}

// Network is a stack of Eedn layers trained by backpropagation on the
// hidden weights with trinary deployment, per the Eedn methodology.
type Network struct {
	Layers []Layer
}

// NewNetwork validates that consecutive layer dimensions agree.
func NewNetwork(layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("eedn: empty network")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i].InDim() != layers[i-1].OutDim() {
			return nil, fmt.Errorf("eedn: layer %d input %d != layer %d output %d",
				i, layers[i].InDim(), i-1, layers[i-1].OutDim())
		}
	}
	return &Network{Layers: layers}, nil
}

// InDim returns the network input dimension.
func (n *Network) InDim() int { return n.Layers[0].InDim() }

// OutDim returns the network output dimension.
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].OutDim() }

// Forward runs one deployed (trinary-weight) pass.
func (n *Network) Forward(x []float64) []float64 {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// trainForward runs the training pass of a group whose examples fill
// the first filled lanes of x and returns the last layer's outputs. A
// threshold layer hands its outputs on as floats and as spikes.
func (n *Network) trainForward(x []float64, filled int) []float64 {
	var f []uint64
	for _, l := range n.Layers {
		x, f = l.trainForward(x, f, filled)
	}
	return x
}

// trainBackward propagates the group's output gradients g down the
// stack. The first layer's input gradient has no consumer, so it is
// not computed.
func (n *Network) trainBackward(g []float64, filled int) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].trainBackward(g, filled, i > 0)
	}
}

// update applies one optimizer step to every layer.
func (n *Network) update(lr, momentum float64, batch int) {
	for _, l := range n.Layers {
		l.Update(lr, momentum, batch)
	}
}

// Loss selects the training objective.
type Loss int

const (
	// LossMSE is mean squared error against a target vector, used for
	// the Parrot regression onto HoG histograms.
	LossMSE Loss = iota
	// LossHinge is a one-vs-all hinge on +-1 targets, used for the
	// pedestrian classifier.
	LossHinge
)

// TrainConfig controls SGD.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	// LRDecay multiplies LR after each epoch (1 = constant).
	LRDecay float64
	Loss    Loss
	Seed    int64
	// Verbose receives per-epoch training loss when non-nil.
	Verbose func(epoch int, loss float64)
}

// DefaultTrainConfig returns sane defaults.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs: 30, BatchSize: 16, LR: 0.05, Momentum: 0.9, LRDecay: 0.97,
		Loss: LossMSE, Seed: 1,
	}
}

// Train fits the network to (xs, ys) and returns the final epoch's
// mean loss.
//
// Hidden weights change only in Update, at the end of each batch, so a
// batch's forward passes do not depend on one another: the trainer runs
// each batch in groups of up to Lanes examples, one pass per group
// through every layer, with the examples lane-interleaved as in the
// inference kernel. Loss and output gradient are computed per example
// in example order, and every layer adds a group's gradient terms to
// each accumulator in example order, so the trained weights are those
// of a pass per example bit for bit.
func (n *Network) Train(xs, ys [][]float64, cfg TrainConfig) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, fmt.Errorf("eedn: train set sizes %d/%d", len(xs), len(ys))
	}
	for i := range xs {
		if len(xs[i]) != n.InDim() || len(ys[i]) != n.OutDim() {
			return 0, fmt.Errorf("eedn: sample %d dims (%d,%d), want (%d,%d)",
				i, len(xs[i]), len(ys[i]), n.InDim(), n.OutDim())
		}
	}
	for _, p := range [...]struct {
		name string
		v    float64
	}{{"LR", cfg.LR}, {"Momentum", cfg.Momentum}, {"LRDecay", cfg.LRDecay}} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return 0, fmt.Errorf("eedn: %s = %v is not finite", p.name, p.v)
		}
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LRDecay <= 0 {
		cfg.LRDecay = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(xs))
	x := make([]float64, n.InDim()*Lanes)     // a group's inputs
	grad := make([]float64, n.OutDim()*Lanes) // their output gradients
	out := make([]float64, n.OutDim())        // one example's outputs
	g := make([]float64, n.OutDim())          // and output gradient
	lr := cfg.LR
	var epochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := obsEpochStart()
		// Reshuffle.
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		epochLoss = 0
		for b := 0; b < len(order); b += cfg.BatchSize {
			batch := order[b:min(b+cfg.BatchSize, len(order))]
			for k := 0; k < len(batch); k += Lanes {
				group := batch[k:min(k+Lanes, len(batch))]
				for l, idx := range group {
					for i, v := range xs[idx] {
						x[i*Lanes+l] = v
					}
				}
				y := n.trainForward(x, len(group))
				for l, idx := range group {
					for i := range out {
						out[i] = y[i*Lanes+l]
					}
					epochLoss += lossAndGrad(cfg.Loss, out, ys[idx], g)
					for i, v := range g {
						grad[i*Lanes+l] = v
					}
				}
				n.trainBackward(grad, len(group))
			}
			n.update(lr, cfg.Momentum, len(batch))
		}
		epochLoss /= float64(len(xs))
		obsEpochEnd(epoch, epochLoss, len(xs), epochStart)
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, epochLoss)
		}
		lr *= cfg.LRDecay
	}
	return epochLoss, nil
}

// lossAndGrad writes dLoss/dOut into grad and returns the loss value.
func lossAndGrad(loss Loss, out, target, grad []float64) float64 {
	var l float64
	switch loss {
	case LossHinge:
		for i := range out {
			margin := 1 - target[i]*out[i]
			if margin > 0 {
				l += margin
				grad[i] = -target[i]
			} else {
				grad[i] = 0
			}
		}
	default: // LossMSE
		for i := range out {
			d := out[i] - target[i]
			l += d * d
			grad[i] = 2 * d
		}
		l /= float64(len(out))
	}
	return l
}
