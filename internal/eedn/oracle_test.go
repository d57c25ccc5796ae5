package eedn

import (
	"math"
	"math/rand"
	"testing"
)

// redeploy derives d's rows again from Hidden, for tests that write
// Hidden directly.
func (d *Dense) redeploy() { d.deployed.Store(deriveSynapses(d.Hidden, d.In, d.Out)) }

// BinarizeDeterministic returns the t-th of `window` deterministic
// binary input frames for value vector x in [0,1]: frame t thresholds
// against (t+0.5)/window, so the number of 1-frames over the window is
// round(v*window) (a thermometer rate code).
func BinarizeDeterministic(x []float64, t, window int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	th := (float64(t) + 0.5) / float64(window)
	for i, v := range x {
		if v >= th {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
	return dst
}

// BinarizeStochastic samples a Bernoulli frame: bit i is 1 with
// probability x[i]. This is the stochastic coding of the paper's
// Parrot front end.
func BinarizeStochastic(x []float64, rng *rand.Rand, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	for i, v := range x {
		if rng.Float64() < v {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
	return dst
}

// InferSpiking is the frozen float path of coded inference that the
// kernel replaced: `window` binary passes of Forward over stochastic
// (rng != nil) or deterministic input frames, averaged per output.
func (n *Network) InferSpiking(x []float64, window int, rng *rand.Rand) []float64 {
	if window <= 0 {
		return n.Forward(x)
	}
	acc := make([]float64, n.OutDim())
	frame := make([]float64, len(x))
	for t := 0; t < window; t++ {
		if rng != nil {
			BinarizeStochastic(x, rng, frame)
		} else {
			BinarizeDeterministic(x, t, window, frame)
		}
		out := n.Forward(frame)
		for i, v := range out {
			acc[i] += v
		}
	}
	inv := 1 / float64(window)
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}

// kernelNet builds a random Dense stack of the given widths whose layer
// i is Linear when linear[i] is set.
func kernelNet(t *testing.T, rng *rand.Rand, widths []int, linear []bool) *Network {
	t.Helper()
	layers := make([]Layer, len(widths)-1)
	for i := range layers {
		d := NewDense(widths[i], widths[i+1], rng)
		d.Linear = linear[i]
		for j := range d.Bias {
			d.Bias[j] = rng.NormFloat64() * 0.5
		}
		layers[i] = d
	}
	net, err := NewNetwork(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestKernelMatchesForward holds the kernel to Forward bit for bit at
// both lane widths, on float inputs (edge values included) and on spike
// frames, over stacks with threshold and Linear layers and widths on
// either side of a 64-bit word.
func TestKernelMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, c := range []struct {
		widths []int
		linear []bool
	}{
		{[]int{100, 64, 18}, []bool{false, true}},
		{[]int{100, 65, 18}, []bool{false, true}},
		{[]int{7, 1, 3}, []bool{false, false}},
		{[]int{130, 40, 33, 1}, []bool{false, true, true}},
		{[]int{64, 512, 63, 1}, []bool{false, false, true}},
	} {
		net := kernelNet(t, rng, c.widths, c.linear)
		in, out := net.InDim(), net.OutDim()
		for _, lanes := range []int{1, Lanes} {
			var s Scratch
			net.Reserve(&s, lanes)
			for trial := 0; trial < 20; trial++ {
				xs := make([][]float64, lanes)
				x := make([]float64, in*lanes)
				frame := make([]uint64, SpikeWords(in)*lanes)
				spikes := make([][]float64, lanes)
				for l := range xs {
					xs[l] = make([]float64, in)
					spikes[l] = make([]float64, in)
					for i := range xs[l] {
						v := rng.Float64()*3 - 1
						if rng.Intn(8) == 0 {
							v = trinaryEdgeInputs[rng.Intn(len(trinaryEdgeInputs))]
						}
						xs[l][i] = v
						x[i*lanes+l] = v
						if rng.Intn(2) == 1 {
							spikes[l][i] = 1
							frame[(i/64)*lanes+l] |= 1 << (i % 64)
						}
					}
				}
				got := net.Infer(&s, x)
				for l := range xs {
					want := net.Forward(xs[l])
					for k := 0; k < out; k++ {
						if !sameBits(got[k*lanes+l], want[k]) {
							t.Fatalf("widths %v lanes %d lane %d output %d: kernel %v, Forward %v",
								c.widths, lanes, l, k, got[k*lanes+l], want[k])
						}
					}
				}
				got = net.InferSpikes(&s, frame)
				for l := range spikes {
					want := net.Forward(spikes[l])
					for k := 0; k < out; k++ {
						if math.Float64bits(got[k*lanes+l]) != math.Float64bits(want[k]) {
							t.Fatalf("widths %v lanes %d lane %d spike output %d: kernel %v, Forward %v",
								c.widths, lanes, l, k, got[k*lanes+l], want[k])
						}
					}
				}
			}
		}
	}
}

// TestKernelAllocs checks that warm kernel passes allocate nothing.
func TestKernelAllocs(t *testing.T) {
	net := kernelNet(t, rand.New(rand.NewSource(3)), []int{100, 64, 18}, []bool{false, true})
	var s Scratch
	net.Reserve(&s, Lanes)
	x := make([]float64, 100*Lanes)
	frame := make([]uint64, SpikeWords(100)*Lanes)
	if n := testing.AllocsPerRun(20, func() {
		net.Reserve(&s, Lanes)
		net.Infer(&s, x)
		net.InferSpikes(&s, frame)
	}); n != 0 {
		t.Errorf("warm kernel passes: %v allocs, want 0", n)
	}
}

// TestCheckDense checks that a stack with a non-Dense layer is refused.
func TestCheckDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mono, err := NewMonolithicNet(rng)
	if err != nil {
		t.Fatal(err)
	}
	if mono.CheckDense() == nil {
		t.Error("convolutional network passed CheckDense")
	}
	net, err := NewParrotNet(18, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.CheckDense(); err != nil {
		t.Error(err)
	}
}

// BenchmarkKernelCell prices one coded tick of the parrot's two layers
// against Forward, at one lane and at Lanes lanes per pass.
func BenchmarkKernelCell(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := NewParrotNet(18, 64, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 100*Lanes)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.Run("forward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.Forward(x[:100])
		}
	})
	for _, lanes := range []int{1, Lanes} {
		var s Scratch
		net.Reserve(&s, lanes)
		b.Run("lanes"+string(rune('0'+lanes)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net.Infer(&s, x[:100*lanes])
			}
		})
	}
}

// BenchmarkInfer7560 is BenchmarkDenseForward7560 through one lane of
// the kernel: the classifier's first layer, as EednClassifier.Score
// runs it.
func BenchmarkInfer7560(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := NewNetwork(NewDense(7560, 256, rng))
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 7560)
	for i := range x {
		x[i] = rng.Float64()
	}
	var s Scratch
	net.Reserve(&s, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Infer(&s, x)
	}
}
