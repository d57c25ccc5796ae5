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

	// training state
	vel     []float64 // momentum for weights
	velB    []float64
	lastIn  []float64
	lastPre []float64
	gradW   []float64
	gradB   []float64
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

// ForwardTrain is Forward with caching for Backward.
func (d *Dense) ForwardTrain(x []float64) []float64 {
	d.lastIn = append(d.lastIn[:0], x...)
	out := make([]float64, d.Out)
	d.preact(x, out)
	d.lastPre = append(d.lastPre[:0], out...)
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

// Backward accumulates parameter gradients for the cached forward pass
// and returns the gradient with respect to the input. The threshold
// activation's derivative uses the straight-through triangular window;
// weight gradients flow to the hidden weights as if the deployed
// weight were the hidden value (the BinaryConnect/Eedn convention).
func (d *Dense) Backward(gradOut []float64) []float64 {
	if len(gradOut) != d.Out {
		//lint:allow errpanic dimension mismatch is a network-wiring bug; error returns would burden every training step
		panic("eedn: dense backward dim mismatch")
	}
	norm := 1 / math.Sqrt(float64(d.In))
	gradIn := make([]float64, d.In)
	for j := 0; j < d.Out; j++ {
		g := gradOut[j]
		if !d.Linear {
			g *= steWindow(d.lastPre[j])
		}
		if g == 0 {
			continue
		}
		d.gradB[j] += g
		row := d.Hidden[j*d.In : (j+1)*d.In]
		gRow := d.gradW[j*d.In : (j+1)*d.In]
		gn := g * norm
		for i := range row {
			gRow[i] += gn * d.lastIn[i]
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

// BackwardParamsOnly accumulates parameter gradients without
// computing the input gradient — valid only for the first layer of a
// network, where nothing consumes it.
func (d *Dense) BackwardParamsOnly(gradOut []float64) {
	if len(gradOut) != d.Out {
		//lint:allow errpanic dimension mismatch is a network-wiring bug; error returns would burden every training step
		panic("eedn: dense backward dim mismatch")
	}
	norm := 1 / math.Sqrt(float64(d.In))
	for j := 0; j < d.Out; j++ {
		g := gradOut[j]
		if !d.Linear {
			g *= steWindow(d.lastPre[j])
		}
		if g == 0 {
			continue
		}
		d.gradB[j] += g
		gRow := d.gradW[j*d.In : (j+1)*d.In]
		gn := g * norm
		for i, x := range d.lastIn {
			gRow[i] += gn * x
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
		flips := 0
		for i := j * d.In; i < (j+1)*d.In; i++ {
			was := trinary(d.Hidden[i])
			d.vel[i] = momentum*d.vel[i] - lr*d.gradW[i]*inv
			d.Hidden[i] += d.vel[i]
			if d.Hidden[i] > 1 {
				d.Hidden[i] = 1
			} else if d.Hidden[i] < -1 {
				d.Hidden[i] = -1
			}
			d.gradW[i] = 0
			flips |= was ^ trinary(d.Hidden[i])
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
