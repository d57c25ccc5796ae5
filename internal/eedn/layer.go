// Package eedn implements an energy-efficient deep neuromorphic
// network (Eedn) training and inference framework after Esser et al.
// (2016), the classifier technology the paper uses for all three
// design paradigms (Sec. 2.2, Sec. 5.1). The defining properties
// reproduced here:
//
//   - Weights keep a high-precision hidden value during training and
//     are mapped to trinary {-1, 0, +1} values for network operation.
//   - Neurons are spiking threshold units (binary output); their
//     non-differentiable activation uses a straight-through gradient
//     approximated by a triangular window around the threshold.
//   - Layers and filters are partitioned into groups so every filter's
//     fan-in fits a 256x256 TrueNorth core crossbar.
//
// Deployed inference runs in the lane kernel (kernel.go): up to Lanes
// inputs per pass, in place on caller scratch, with spike inputs
// counted against per-neuron bit masks. A coded input runs one spike
// pass per tick of its coding window, and the outputs are averaged
// over the window into confidence values.
package eedn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
)

// TrinaryDeadZone is the hidden-weight magnitude below which the
// deployed trinary weight is zero: w_q = sign(w_h) when |w_h| >= 0.5.
const TrinaryDeadZone = 0.5

// Trinarize maps a hidden weight to its deployed trinary value.
func Trinarize(w float64) float64 { return float64(trinary(w)) }

// trinary is Trinarize as an int, computed without branches: trained
// hidden weights fall on either side of the dead zone at random, so a
// branch on them would mispredict often.
func trinary(w float64) int {
	return b2i(w >= TrinaryDeadZone) - b2i(w <= -TrinaryDeadZone)
}

// b2i is 1 for true and 0 for false; the compiler emits a SETcc for
// it, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// steWindow is the triangular straight-through derivative window: the
// gradient of the threshold activation is approximated by
// max(0, 1 - |v|) around the firing threshold.
func steWindow(v float64) float64 {
	a := math.Abs(v)
	if a >= 1 {
		return 0
	}
	return 1 - a
}

// Dense is a fully connected Eedn layer with trinary deployed weights,
// per-neuron bias (threshold), and binary threshold activation. The
// pre-activation is normalized by sqrt(fan-in) so layer dynamics stay
// scale-stable as width varies.
type Dense struct {
	In, Out int
	// Hidden holds the high-precision training weights, Out x In
	// row-major. Inference does not read Hidden: it reads the deployed
	// synapse rows NewDense derives from it, which Update refreshes
	// wherever it moves a weight across the dead-zone edge. Only
	// NewDense and Update write Hidden; a direct write leaves the rows
	// stale.
	Hidden []float64
	// Bias holds per-neuron biases (negated firing thresholds).
	Bias []float64

	// Final activation: when false the layer applies the binary
	// threshold; when true it is a linear readout (used only as the
	// last layer of regression heads).
	Linear bool

	// deployed publishes the synapse rows derived from Hidden. It is
	// atomic because DetectStream runs parrot inference on several
	// goroutines while parrot.Train's probe shares a training network.
	deployed atomic.Pointer[synapseRows]

	// training state: the momentum velocities and gradient
	// accumulators, then the planes of the last training pass, Lanes
	// examples lane-interleaved: its inputs (a plane of the trainer or
	// of the layer below), pre-activations, outputs and their spikes,
	// and the input gradients of its backward pass
	vel     []float64 // momentum for weights
	velB    []float64
	gradW   []float64
	gradB   []float64
	lastIn  []float64
	lastPre []float64
	out     []float64
	spikes  []uint64
	gradIn  []float64
}

// NewDense returns a dense layer with hidden weights initialized
// uniformly in [-0.8, 0.8], so roughly a third of the deployed
// trinary weights start nonzero and signal flows from the first step.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		//lint:allow errpanic nonpositive layer shape is a construction bug caught at network-definition time
		panic(fmt.Sprintf("eedn: dense %dx%d invalid", in, out))
	}
	d := &Dense{
		In: in, Out: out,
		Hidden: make([]float64, in*out),
		Bias:   make([]float64, out),
		vel:    make([]float64, in*out),
		velB:   make([]float64, out),
		gradW:  make([]float64, in*out),
		gradB:  make([]float64, out),
	}
	for i := range d.Hidden {
		d.Hidden[i] = (rng.Float64()*2 - 1) * 0.8
	}
	d.deployed.Store(deriveSynapses(d.Hidden, in, out))
	return d
}

// synapse is one connected input of a deployed neuron: the input index
// and the trinary weight, +1 or -1, as a float64.
type synapse struct {
	in  int
	sgn float64
}

// deployedRow is one neuron's deployed weights in two forms: syn lists
// its connected synapses in ascending input order, for float inputs,
// and pos and neg are bit masks over its inputs, for spike inputs: bit
// i%64 of word i/64 is set in pos where input i's weight is +1 and in
// neg where it is -1.
type deployedRow struct {
	syn      []synapse
	pos, neg []uint64
}

// synapseRows holds a dense layer's deployed weights, one row per
// neuron. A TrueNorth neuron integrates only its connected synapses,
// and preact and the inference kernel do the same, so their work
// scales with the nonzero weights rather than with In x Out.
type synapseRows []deployedRow

// deriveSynapses builds the deployed rows of an out x in hidden matrix.
func deriveSynapses(hidden []float64, in, out int) *synapseRows {
	rows := make(synapseRows, out)
	for j := range rows {
		rows[j] = deployRow(hidden[j*in : (j+1)*in])
	}
	return &rows
}

// deployRow returns the deployed row of one neuron's hidden weights.
// It does not branch on a weight: every weight writes its synapse into
// the next free slot, and only a nonzero one advances past it; its
// mask bits are set by shifting a 0 or 1.
func deployRow(hidden []float64) deployedRow {
	n := 0
	for _, w := range hidden {
		t := trinary(w)
		n += t * t
	}
	syn := make([]synapse, n+1) // one spare slot for trailing zeros
	words := SpikeWords(len(hidden))
	masks := make([]uint64, 2*words)
	pos, neg := masks[:words:words], masks[words:]
	n = 0
	for i, w := range hidden {
		t := trinary(w)
		syn[n] = synapse{in: i, sgn: float64(t)}
		n += t * t
		pos[i>>6] |= uint64(b2i(t > 0)) << (i & 63)
		neg[i>>6] |= uint64(b2i(t < 0)) << (i & 63)
	}
	return deployedRow{syn: syn[:n:n], pos: pos, neg: neg}
}

// synapses returns the published deployed rows.
func (d *Dense) synapses() synapseRows { return *d.deployed.Load() }

// InDim returns the input dimension.
func (d *Dense) InDim() int { return d.In }

// OutDim returns the output dimension.
func (d *Dense) OutDim() int { return d.Out }

// preact computes the normalized pre-activation with trinary weights,
// summing sgn*x over each neuron's connected synapses in ascending
// input order. In IEEE-754, 1*x == x and s + (-1*x) == s - x, so this
// is bit-identical to adding or subtracting x per nonzero weight.
func (d *Dense) preact(x []float64, out []float64) {
	floatLane(d.synapses(), x, 1/math.Sqrt(float64(d.In)), d.Bias, out)
}

// Forward computes the deployed-network output for x: binary threshold
// spikes unless the layer is Linear.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		//lint:allow errpanic dimension mismatch is a network-wiring bug; error returns would burden every training step
		panic(fmt.Sprintf("eedn: dense forward input %d, want %d", len(x), d.In))
	}
	out := make([]float64, d.Out)
	d.preact(x, out)
	if !d.Linear {
		for j, v := range out {
			if v >= 0 {
				out[j] = 1
			} else {
				out[j] = 0
			}
		}
	}
	return out
}

// trainForward runs the training pass of one group of examples,
// lane-interleaved as in the inference kernel: x holds their inputs
// and f, when not nil, the same inputs as a spike frame, which inputs
// of 0 and 1 allow. The lanes run through floatLanes or spikeLanes,
// which match preact per lane bit for bit. It caches x and the
// pre-activations for trainBackward and returns the outputs, and for a
// threshold layer their spike frame too. Lanes past the group's
// examples are computed and ignored.
func (d *Dense) trainForward(x []float64, f []uint64, _ int) ([]float64, []uint64) {
	d.lastIn = x
	d.lastPre = growFloats(d.lastPre, d.Out*Lanes)
	norm := 1 / math.Sqrt(float64(d.In))
	if f != nil {
		spikeLanes(d.synapses(), f, norm, d.Bias, d.lastPre)
	} else {
		floatLanes(d.synapses(), x, norm, d.Bias, d.lastPre)
	}
	if d.Linear {
		return d.lastPre, nil
	}
	d.out = growFloats(d.out, len(d.lastPre))
	for k, v := range d.lastPre {
		d.out[k] = float64(b2i(v >= 0))
	}
	d.spikes = growWords(d.spikes, SpikeWords(d.Out)*Lanes)
	packSpikes(d.spikes, d.lastPre, Lanes)
	return d.out, d.spikes
}

// trainBackward accumulates the parameter gradients of the first n
// lanes of the last training pass from their output gradients gradOut
// and, when needIn is set, returns their input gradients; the first
// layer of a network has no consumer for those, which for wide feature
// inputs saves a large part of the pass. The threshold activation's
// derivative is the straight-through triangular window, and weight
// gradients flow to the hidden weights as if the deployed weight were
// the hidden value (the BinaryConnect/Eedn convention).
//
// Each accumulator gets the lanes' terms in ascending lane order, which
// is example order, and a lane adds nothing where its gradient is 0,
// so every sum is the one-example-at-a-time pass's bit for bit. A
// weight row is read and written once per group instead of once per
// example.
func (d *Dense) trainBackward(gradOut []float64, n int, needIn bool) []float64 {
	norm := 1 / math.Sqrt(float64(d.In))
	var rows synapseRows
	if needIn {
		d.gradIn = growFloats(d.gradIn, d.In*Lanes)
		clear(d.gradIn)
		rows = d.synapses()
	}
	var live [Lanes]int
	var gn [Lanes]float64
	for j := 0; j < d.Out; j++ {
		k := 0
		for l := 0; l < n; l++ {
			g := gradOut[j*Lanes+l]
			if !d.Linear {
				g *= steWindow(d.lastPre[j*Lanes+l])
			}
			if g == 0 {
				continue
			}
			d.gradB[j] += g
			live[k], gn[k] = l, g*norm
			k++
		}
		if k == 0 {
			continue
		}
		accumulateLanes(d.gradW[j*d.In:(j+1)*d.In], d.lastIn, gn[:k], live[:k])
		if needIn {
			// 1*g is g and s + -1*g is s - g, so adding sgn*g per
			// synapse is adding or subtracting g per nonzero weight.
			for _, e := range rows[j].syn {
				v := d.gradIn[e.in*Lanes : e.in*Lanes+Lanes : e.in*Lanes+Lanes]
				for i, l := range live[:k] {
					v[l&(Lanes-1)] += e.sgn * gn[i]
				}
			}
		}
	}
	if !needIn {
		return nil
	}
	return d.gradIn
}

// accumulateLanes adds g[k]*x[i*Lanes+ls[k]] to acc[i] for every i,
// in ascending k: the terms one neuron's weight gradients get from the
// live lanes ls of a group, whose inputs x are lane-interleaved.
func accumulateLanes(acc, x, g []float64, ls []int) {
	x = x[:len(acc)*Lanes]
	switch len(ls) {
	case 1:
		g0, l0 := g[0], ls[0]
		for i := range acc {
			acc[i] += g0 * x[i*Lanes+l0]
		}
	case 2:
		g0, g1 := g[0], g[1]
		l0, l1 := ls[0]&(Lanes-1), ls[1]&(Lanes-1)
		for i := range acc {
			v := x[i*Lanes : i*Lanes+Lanes : i*Lanes+Lanes]
			a := acc[i]
			a += g0 * v[l0]
			a += g1 * v[l1]
			acc[i] = a
		}
	case 3:
		g0, g1, g2 := g[0], g[1], g[2]
		l0, l1, l2 := ls[0]&(Lanes-1), ls[1]&(Lanes-1), ls[2]&(Lanes-1)
		for i := range acc {
			v := x[i*Lanes : i*Lanes+Lanes : i*Lanes+Lanes]
			a := acc[i]
			a += g0 * v[l0]
			a += g1 * v[l1]
			a += g2 * v[l2]
			acc[i] = a
		}
	default: // all Lanes lanes, 0 to 3
		g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
		for i := range acc {
			v := x[i*Lanes : i*Lanes+Lanes : i*Lanes+Lanes]
			a := acc[i]
			a += g0 * v[0]
			a += g1 * v[1]
			a += g2 * v[2]
			a += g3 * v[3]
			acc[i] = a
		}
	}
}

// Update applies one SGD-with-momentum step from the accumulated
// gradients (scaled by 1/batch), clips hidden weights to [-1, 1],
// clears the gradient accumulators and, if any trinary weight changed,
// publishes new deployed rows, synapses and masks together.
func (d *Dense) Update(lr, momentum float64, batch int) {
	if batch <= 0 {
		batch = 1
	}
	inv := 1 / float64(batch)
	prev := d.deployed.Load()
	var next synapseRows
	for j := 0; j < d.Out; j++ {
		h := d.Hidden[j*d.In : (j+1)*d.In]
		vel := d.vel[j*d.In : (j+1)*d.In]
		grad := d.gradW[j*d.In : (j+1)*d.In]
		vel, grad = vel[:len(h)], grad[:len(h)]
		flips := 0
		for i, w := range h {
			was := trinary(w)
			v := momentum*vel[i] - lr*grad[i]*inv
			vel[i] = v
			w += v
			if w > 1 {
				w = 1
			} else if w < -1 {
				w = -1
			}
			h[i] = w
			grad[i] = 0
			flips |= was ^ trinary(w)
		}
		// Few weights cross the dead-zone edge in one step, so only
		// the rows they are in are derived again; published rows are
		// never written, so the new rows share the others.
		if flips != 0 {
			if next == nil {
				next = slices.Clone(*prev)
			}
			next[j] = deployRow(d.Hidden[j*d.In : (j+1)*d.In])
		}
	}
	for j := range d.Bias {
		d.velB[j] = momentum*d.velB[j] - lr*d.gradB[j]*inv
		d.Bias[j] += d.velB[j]
		d.gradB[j] = 0
	}
	if next != nil {
		d.deployed.Store(&next)
	}
}
