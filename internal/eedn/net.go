package eedn

import (
	"fmt"
	"math/rand"
)

// Layer is one stage of an Eedn network.
type Layer interface {
	Forward(x []float64) []float64
	ForwardTrain(x []float64) []float64
	Backward(gradOut []float64) []float64
	Update(lr, momentum float64, batch int)
	InDim() int
	OutDim() int
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

// forwardTrain runs a cached pass for training.
func (n *Network) forwardTrain(x []float64) []float64 {
	for _, l := range n.Layers {
		x = l.ForwardTrain(x)
	}
	return x
}

// paramsOnlyBackward is implemented by layers that can skip the
// input-gradient computation; the first layer of a network has no
// upstream consumer, which for wide feature inputs saves a large
// fraction of the backward pass.
type paramsOnlyBackward interface {
	BackwardParamsOnly(gradOut []float64)
}

// backward propagates the output gradient down the stack.
func (n *Network) backward(g []float64) {
	for i := len(n.Layers) - 1; i > 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	if p, ok := n.Layers[0].(paramsOnlyBackward); ok {
		p.BackwardParamsOnly(g)
		return
	}
	n.Layers[0].Backward(g)
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
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LRDecay <= 0 {
		cfg.LRDecay = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(xs))
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
		inBatch := 0
		for _, idx := range order {
			out := n.forwardTrain(xs[idx])
			grad := make([]float64, len(out))
			epochLoss += lossAndGrad(cfg.Loss, out, ys[idx], grad)
			n.backward(grad)
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
