package eedn

import (
	"fmt"
	"math"
	"math/bits"
)

// The inference kernel runs a stack of Dense layers in place, on
// scratch the caller owns, for up to Lanes inputs per pass: each pass
// over a layer's deployed rows serves every lane, so the rows are read
// once per group of inputs and the lanes' add chains run side by side.
//
// A layer with float inputs (the first layer on raw values, or a layer
// after a Linear one) adds sgn*x over each row's synapses in ascending
// input order, one accumulator per lane: the operations preact does,
// in its order, so every lane equals Forward bit for bit. A layer whose
// inputs are spikes (a coded tick, or the outputs of a threshold layer)
// counts them instead: the sum is popcount(pos & x) - popcount(neg & x).
// Each float partial sum of 0/1 inputs times ±1 weights is a small
// integer, exact in float64, and never -0 (it starts at +0, a -0 term
// leaves +0 unchanged and x - x is +0), so the count converted to
// float64 is the float sum bit for bit. Both forms finish with
// s*norm + bias exactly as preact writes it, so a compiler that fuses
// the multiply-add fuses both alike.

// Lanes is the most inputs one kernel pass evaluates.
const Lanes = 4

// SpikeWords returns the uint64 words that n spikes of one lane take.
func SpikeWords(n int) int { return (n + 63) / 64 }

// Scratch is the caller-owned working memory of the inference kernel at
// one lane width, 1 or Lanes: an output plane per layer, and a packed
// spike plane per threshold layer. Planes are lane-interleaved: value k
// of lane l sits at k*lanes+l, and spike k of lane l is bit k%64 of
// word (k/64)*lanes+l. The zero value is ready for Reserve. A Scratch
// serves one pass at a time.
type Scratch struct {
	lanes  int
	acts   [][]float64
	spikes [][]uint64
}

// Lanes returns the lane width s was last reserved for.
func (s *Scratch) Lanes() int { return s.lanes }

// CheckDense reports an error naming the first layer of n that is not
// Dense: the inference kernel runs stacks of Dense layers only.
func (n *Network) CheckDense() error {
	for i, l := range n.Layers {
		if _, ok := l.(*Dense); !ok {
			return fmt.Errorf("eedn: layer %d is %T; the inference kernel runs Dense layers only", i, l)
		}
	}
	return nil
}

// Reserve sizes s for kernel passes of n at the given lane width: Lanes,
// or 1 for any other value. n must pass CheckDense. Planes grow by
// append, so only a pass that needs more room than s has allocates.
func (n *Network) Reserve(s *Scratch, lanes int) {
	if lanes != Lanes {
		lanes = 1
	}
	s.lanes = lanes
	for len(s.acts) < len(n.Layers) {
		s.acts = append(s.acts, nil)
		s.spikes = append(s.spikes, nil)
	}
	for i, l := range n.Layers {
		d := l.(*Dense)
		s.acts[i] = growFloats(s.acts[i], d.Out*lanes)
		s.spikes[i] = growWords(s.spikes[i], SpikeWords(d.Out)*lanes)
	}
}

// growFloats returns b resized to n, reusing its backing array when it
// has room.
func growFloats(b []float64, n int) []float64 {
	b = b[:cap(b)]
	for len(b) < n {
		b = append(b, 0)
	}
	return b[:n]
}

// growWords is growFloats for spike words.
func growWords(b []uint64, n int) []uint64 {
	b = b[:cap(b)]
	for len(b) < n {
		b = append(b, 0)
	}
	return b[:n]
}

// Infer runs one kernel pass of n on float inputs x, InDim values per
// lane, lane-interleaved, and returns the last layer's outputs, OutDim
// per lane, in a plane of s that the next pass overwrites. Every lane
// is computed, so the caller pads lanes it has no input for and
// ignores their outputs. Reserve must have sized s for n.
//
//pcnn:hotpath
func (n *Network) Infer(s *Scratch, x []float64) []float64 {
	return n.run(s, x, nil)
}

// InferSpikes is Infer on a spike frame: input i of lane l fires when
// bit i%64 of frame[(i/64)*lanes+l] is set.
//
//pcnn:hotpath
func (n *Network) InferSpikes(s *Scratch, frame []uint64) []float64 {
	return n.run(s, nil, frame)
}

// run passes float inputs x, or spikes f when x is nil, through every
// layer. A threshold layer's outputs are packed into spikes for the
// next layer; the last layer's are written as 0 and 1.
func (n *Network) run(s *Scratch, x []float64, f []uint64) []float64 {
	last := len(n.Layers) - 1
	for i, l := range n.Layers {
		d := l.(*Dense)
		rows := *d.deployed.Load()
		norm := 1 / math.Sqrt(float64(d.In))
		out := s.acts[i]
		switch {
		case x == nil && s.lanes == Lanes:
			spikeLanes(rows, f, norm, d.Bias, out)
		case x == nil:
			spikeLane(rows, f, norm, d.Bias, out)
		case s.lanes == Lanes:
			floatLanes(rows, x, norm, d.Bias, out)
		default:
			floatLane(rows, x, norm, d.Bias, out)
		}
		x = out
		switch {
		case d.Linear:
			// A linear readout passes its pre-activations on as floats.
		case i == last:
			for k, v := range out {
				out[k] = float64(b2i(v >= 0))
			}
		default:
			x, f = nil, s.spikes[i]
			packSpikes(f, out, s.lanes)
		}
	}
	return x
}

// packSpikes writes the threshold spikes of the lane-interleaved
// pre-activations pre into f: neuron j of lane l fires when its
// pre-activation is >= 0, as in Forward (a NaN stays silent).
func packSpikes(f []uint64, pre []float64, lanes int) {
	clear(f)
	for j := 0; j*lanes < len(pre); j++ {
		w := f[(j>>6)*lanes:]
		for l, v := range pre[j*lanes : (j+1)*lanes] {
			w[l] |= uint64(b2i(v >= 0)) << (j & 63)
		}
	}
}

// floatLane is one lane of float inputs, and preact's loop: it adds
// sgn*x over each row in ascending input order, two synapses per
// iteration.
func floatLane(rows synapseRows, x []float64, norm float64, bias, out []float64) {
	for j := range rows {
		syn := rows[j].syn
		var s float64
		for ; len(syn) >= 2; syn = syn[2:] {
			s += syn[0].sgn * x[syn[0].in]
			s += syn[1].sgn * x[syn[1].in]
		}
		if len(syn) == 1 {
			s += syn[0].sgn * x[syn[0].in]
		}
		out[j] = s*norm + bias[j]
	}
}

// floatLanes is Lanes lanes of float inputs: each lane adds its sgn*x
// terms in ascending input order, as floatLane does.
func floatLanes(rows synapseRows, x []float64, norm float64, bias, out []float64) {
	for j, r := range rows {
		var s0, s1, s2, s3 float64
		for _, e := range r.syn {
			v := x[e.in*Lanes : e.in*Lanes+Lanes : e.in*Lanes+Lanes]
			s0 += e.sgn * v[0]
			s1 += e.sgn * v[1]
			s2 += e.sgn * v[2]
			s3 += e.sgn * v[3]
		}
		o := out[j*Lanes : j*Lanes+Lanes : j*Lanes+Lanes]
		b := bias[j]
		o[0] = s0*norm + b
		o[1] = s1*norm + b
		o[2] = s2*norm + b
		o[3] = s3*norm + b
	}
}

// spikeLane is one lane of spike inputs, counted against the row masks.
func spikeLane(rows synapseRows, f []uint64, norm float64, bias, out []float64) {
	for j, r := range rows {
		neg := r.neg[:len(r.pos)]
		c := 0
		for w, p := range r.pos {
			c += bits.OnesCount64(p&f[w]) - bits.OnesCount64(neg[w]&f[w])
		}
		s := float64(c)
		out[j] = s*norm + bias[j]
	}
}

// spikeLanes is Lanes lanes of spike inputs.
func spikeLanes(rows synapseRows, f []uint64, norm float64, bias, out []float64) {
	for j, r := range rows {
		neg := r.neg[:len(r.pos)]
		var c0, c1, c2, c3 int
		for w, p := range r.pos {
			m := neg[w]
			v := f[w*Lanes : w*Lanes+Lanes : w*Lanes+Lanes]
			c0 += bits.OnesCount64(p&v[0]) - bits.OnesCount64(m&v[0])
			c1 += bits.OnesCount64(p&v[1]) - bits.OnesCount64(m&v[1])
			c2 += bits.OnesCount64(p&v[2]) - bits.OnesCount64(m&v[2])
			c3 += bits.OnesCount64(p&v[3]) - bits.OnesCount64(m&v[3])
		}
		o := out[j*Lanes : j*Lanes+Lanes : j*Lanes+Lanes]
		b := bias[j]
		s0, s1, s2, s3 := float64(c0), float64(c1), float64(c2), float64(c3)
		o[0] = s0*norm + b
		o[1] = s1*norm + b
		o[2] = s2*norm + b
		o[3] = s3*norm + b
	}
}
