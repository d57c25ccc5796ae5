package eedn

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Data-parallel training: each worker owns a replica of every layer
// that shares the (read-only during a batch) hidden weights but has
// private activation caches and gradient accumulators. After a batch,
// worker gradients merge into the master layers and the master takes
// the optimizer step. The static sample split keeps runs deterministic
// for a fixed worker count.

// workerLayer is a layer that supports replica-based parallelism.
type workerLayer interface {
	Layer
	// replicate returns a gradient-isolated replica sharing weights.
	replicate() workerLayer
	// mergeGradsFrom adds the replica's accumulated gradients into the
	// receiver and clears the replica's.
	mergeGradsFrom(replica workerLayer) error
}

// replicate for Dense: share Hidden/Bias and the deployed rows, fresh
// caches and grads.
func (d *Dense) replicate() workerLayer {
	return &Dense{
		In: d.In, Out: d.Out, Linear: d.Linear,
		Hidden: d.Hidden, Bias: d.Bias, deployed: d.deployed,
		gradW: make([]float64, len(d.Hidden)),
		gradB: make([]float64, len(d.Bias)),
	}
}

// mergeGradsFrom implements workerLayer for Dense.
func (d *Dense) mergeGradsFrom(replica workerLayer) error {
	r, ok := replica.(*Dense)
	if !ok || len(r.gradW) != len(d.gradW) {
		return fmt.Errorf("eedn: dense merge mismatch")
	}
	for i, g := range r.gradW {
		d.gradW[i] += g
		r.gradW[i] = 0
	}
	for i, g := range r.gradB {
		d.gradB[i] += g
		r.gradB[i] = 0
	}
	return nil
}

// replicate for Conv2D.
func (c *Conv2D) replicate() workerLayer {
	return &Conv2D{
		InC: c.InC, InH: c.InH, InW: c.InW, OutC: c.OutC,
		K: c.K, Stride: c.Stride, Groups: c.Groups,
		Hidden: c.Hidden, Bias: c.Bias,
		gradW: make([]float64, len(c.Hidden)),
		gradB: make([]float64, len(c.Bias)),
	}
}

// mergeGradsFrom implements workerLayer for Conv2D.
func (c *Conv2D) mergeGradsFrom(replica workerLayer) error {
	r, ok := replica.(*Conv2D)
	if !ok || len(r.gradW) != len(c.gradW) {
		return fmt.Errorf("eedn: conv merge mismatch")
	}
	for i, g := range r.gradW {
		c.gradW[i] += g
		r.gradW[i] = 0
	}
	for i, g := range r.gradB {
		c.gradB[i] += g
		r.gradB[i] = 0
	}
	return nil
}

// TrainParallel is Train with data-parallel batches over `workers`
// goroutines. workers <= 1 falls back to Train; workers above
// runtime.GOMAXPROCS(0) are clamped to it, since extra replicas past
// the parallelism cap only add gradient-merge overhead (and memory)
// without any concurrency. Results differ from serial training only
// by floating-point summation order. Speedups require GOMAXPROCS > 1
// and batches large enough to amortize the per-batch gradient merge.
func (n *Network) TrainParallel(xs, ys [][]float64, cfg TrainConfig, workers int) (float64, error) {
	if maxProcs := runtime.GOMAXPROCS(0); workers > maxProcs {
		workers = maxProcs
	}
	if workers <= 1 {
		return n.Train(xs, ys, cfg)
	}
	if obs.Enabled() {
		obs.GaugeM("eedn.parallel.workers").Set(float64(workers))
	}
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

	// Build worker replicas as full Networks.
	replicas := make([]*Network, workers)
	for w := 0; w < workers; w++ {
		layers := make([]Layer, len(n.Layers))
		for i, l := range n.Layers {
			wl, ok := l.(workerLayer)
			if !ok {
				return 0, fmt.Errorf("eedn: layer %d (%T) does not support parallel training", i, l)
			}
			layers[i] = wl.replicate()
		}
		rep, err := NewNetwork(layers...)
		if err != nil {
			return 0, err
		}
		replicas[w] = rep
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(xs))
	lr := cfg.LR
	var epochLoss float64
	losses := make([]float64, workers)
	busy := make([]time.Duration, workers)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := obsEpochStart()
		for w := range busy {
			busy[w] = 0
		}
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		epochLoss = 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			measure := obs.Enabled()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var t0 time.Time
					if measure {
						t0 = time.Now()
					}
					losses[w] = 0
					rep := replicas[w]
					for k := w; k < len(batch); k += workers {
						idx := batch[k]
						out := rep.forwardTrain(xs[idx])
						grad := make([]float64, len(out))
						losses[w] += lossAndGrad(cfg.Loss, out, ys[idx], grad)
						rep.backward(grad)
					}
					if measure {
						busy[w] += time.Since(t0)
					}
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				epochLoss += losses[w]
				for i, l := range n.Layers {
					if err := l.(workerLayer).mergeGradsFrom(replicas[w].Layers[i].(workerLayer)); err != nil {
						return 0, err
					}
				}
			}
			n.update(lr, cfg.Momentum, len(batch))
		}
		epochLoss /= float64(len(xs))
		if !epochStart.IsZero() {
			// Utilization: mean worker busy time over the epoch wall
			// time. 1.0 means every worker computed the whole epoch;
			// low values expose merge overhead or stride imbalance.
			if wall := time.Since(epochStart); wall > 0 {
				var total time.Duration
				for _, b := range busy {
					total += b
				}
				util := float64(total) / (float64(workers) * float64(wall))
				obs.GaugeM("eedn.parallel.worker_utilization").Set(util)
			}
		}
		obsEpochEnd(epoch, epochLoss, len(xs), epochStart)
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, epochLoss)
		}
		lr *= cfg.LRDecay
	}
	return epochLoss, nil
}
