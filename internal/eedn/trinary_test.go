package eedn

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// preactBranchy is the frozen per-weight pre-activation that the
// deployed synapse rows replaced: it branches on every hidden weight.
// The differential tests below hold Dense.Forward to it bit for bit.
func preactBranchy(d *Dense, x []float64, out []float64) {
	norm := 1 / math.Sqrt(float64(d.In))
	for j := 0; j < d.Out; j++ {
		row := d.Hidden[j*d.In : (j+1)*d.In]
		var s float64
		for i, w := range row {
			switch {
			case w >= TrinaryDeadZone:
				s += x[i]
			case w <= -TrinaryDeadZone:
				s -= x[i]
			}
		}
		out[j] = s*norm + d.Bias[j]
	}
}

// forwardBranchy is Dense.Forward over preactBranchy.
func forwardBranchy(d *Dense, x []float64) []float64 {
	out := make([]float64, d.Out)
	preactBranchy(d, x, out)
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

// sameBits reports whether a and b have the same IEEE-754 bits. Any
// NaN matches any NaN: the Go specification leaves NaN payloads and
// signs unspecified, so they are not part of the contract. Everything
// else, the sign of zero included, must match exactly.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// trinaryEdgeWeights are hidden weights at, just inside and just
// outside the dead-zone edges, plus zeros and the clip rails.
var trinaryEdgeWeights = []float64{
	TrinaryDeadZone, -TrinaryDeadZone,
	math.Nextafter(TrinaryDeadZone, 0), math.Nextafter(-TrinaryDeadZone, 0),
	math.Nextafter(TrinaryDeadZone, 1), math.Nextafter(-TrinaryDeadZone, -1),
	0, math.Copysign(0, -1), 1, -1, 0.9, -0.2,
}

// trinaryEdgeInputs are inputs that stress the identities preact
// relies on: signed zeros, infinities, NaN, subnormals and extremes.
var trinaryEdgeInputs = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
}

// pick returns table[b] for b below the table length and free
// otherwise, so a fuzzed byte selects either an edge value or the
// fuzzer's own float.
func pick(table []float64, b byte, free float64) float64 {
	if int(b) < len(table) {
		return table[b]
	}
	return free
}

func FuzzDenseTrinary(f *testing.F) {
	// Every edge weight against every edge input, as one neuron each.
	ws := make([]byte, 0, len(trinaryEdgeWeights)*len(trinaryEdgeInputs))
	xs := make([]byte, 0, cap(ws))
	for w := range trinaryEdgeWeights {
		for x := range trinaryEdgeInputs {
			ws = append(ws, byte(w))
			xs = append(xs, byte(x))
		}
	}
	for _, linear := range []bool{false, true} {
		f.Add(uint8(1), linear, ws, xs, 0.3, -0.7, 0.0)
		f.Add(uint8(12), linear, ws, xs[:12], 0.3, -0.7, -0.1)
	}
	f.Fuzz(func(t *testing.T, in uint8, linear bool, wsel, xsel []byte, wFree, xFree, bias float64) {
		nIn := int(in%32) + 1
		nOut := len(wsel) / nIn
		if nOut == 0 {
			return
		}
		if nOut > 64 {
			nOut = 64
		}
		d := NewDense(nIn, nOut, rand.New(rand.NewSource(1)))
		d.Linear = linear
		for i := range d.Hidden {
			d.Hidden[i] = pick(trinaryEdgeWeights, wsel[i], wFree)
		}
		d.redeploy()
		for j := range d.Bias {
			d.Bias[j] = bias
		}
		x := make([]float64, nIn)
		for i := range x {
			var b byte = 255
			if i < len(xsel) {
				b = xsel[i]
			}
			x[i] = pick(trinaryEdgeInputs, b, xFree)
		}
		want := forwardBranchy(d, x)
		got := d.Forward(x)
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("output %d: Forward %v (%#x), per-weight oracle %v (%#x); in %d out %d linear %v",
					j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]), nIn, nOut, linear)
			}
		}
	})
}

// TestDenseMatchesBranchyOracleOnParrotShapes drives random trained-range
// weights through the parrot's two layer shapes.
func TestDenseMatchesBranchyOracleOnParrotShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net, err := NewParrotNet(18, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, net.InDim())
	for trial := 0; trial < 50; trial++ {
		for i := range x {
			x[i] = rng.Float64()
		}
		in := x
		for li, l := range net.Layers {
			d := l.(*Dense)
			got, want := d.Forward(in), forwardBranchy(d, in)
			for j := range want {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("trial %d layer %d output %d: %v, oracle %v", trial, li, j, got[j], want[j])
				}
			}
			in = got
		}
	}
}

// TestTrainedForwardMatchesReload trains in stages and checks, after
// every stage, that Forward equals the per-weight oracle forwardBranchy
// chained over the layers, bit for bit. The oracle reads the current
// hidden weights directly, as a network reloaded from them would, so a
// layer that kept stale synapse rows after Update would disagree with
// it. The published rows must also equal rows derived afresh.
func TestTrainedForwardMatchesReload(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, err := NewClassifierNet(16, 24, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := parallelTask(96, 4)
	check := func(stage string) {
		t.Helper()
		for li, l := range net.Layers {
			d := l.(*Dense)
			if !reflect.DeepEqual(d.synapses(), *deriveSynapses(d.Hidden, d.In, d.Out)) {
				t.Fatalf("%s: layer %d publishes stale synapse rows", stage, li)
			}
		}
		for i, x := range xs {
			want := x
			for _, l := range net.Layers {
				want = forwardBranchy(l.(*Dense), want)
			}
			got := net.Forward(x)
			for j := range want {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("%s: sample %d output %d: trained %v, oracle %v", stage, i, j, got[j], want[j])
				}
			}
		}
	}
	cfg := DefaultTrainConfig()
	cfg.Loss = LossHinge
	cfg.Epochs = 2
	check("untrained")
	for step := 0; step < 3; step++ {
		cfg.Seed = int64(step)
		if _, err := net.Train(xs, ys, cfg); err != nil {
			t.Fatal(err)
		}
		check("serial")
	}
}

// TestDenseConcurrentFirstPass runs a fresh layer's first passes from
// several goroutines at once, as DetectStream does with the parrot
// network; run it under -race.
func TestDenseConcurrentFirstPass(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(3))
	d := NewDense(40, 12, rng)
	x := make([]float64, d.In)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := forwardBranchy(d, x)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := d.Forward(x)
			for j := range want {
				if !sameBits(got[j], want[j]) {
					t.Errorf("output %d: %v, oracle %v", j, got[j], want[j])
				}
			}
		}()
	}
	wg.Wait()
}
