package eedn

import (
	"math/rand"
	"testing"

	"repro/internal/truenorth"
)

// buildBinaryNet returns a small all-threshold network with weights
// pushed outside the dead zone so deployment is nontrivial.
func buildBinaryNet(t *testing.T, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l1 := NewDense(12, 20, rng)
	l2 := NewDense(20, 8, rng)
	for _, d := range []*Dense{l1, l2} {
		for i := range d.Hidden {
			d.Hidden[i] = float64(rng.Intn(3)-1) * 0.9 // in {-0.9, 0, 0.9}
		}
		d.redeploy()
		for j := range d.Bias {
			d.Bias[j] = (rng.Float64()*2 - 1) * 0.8
		}
	}
	net, err := NewNetwork(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestDeployMatchesSoftwareExactly(t *testing.T) {
	net := buildBinaryNet(t, 21)
	dep, err := Deploy(net)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := truenorth.NewSimulator(dep.Model, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		frame := make([]float64, 12)
		for i := range frame {
			frame[i] = float64(rng.Intn(2))
		}
		hw, err := dep.RunPass(sim, frame)
		if err != nil {
			t.Fatal(err)
		}
		sw := net.Forward(frame)
		for j := range sw {
			if hw[j] != sw[j] {
				t.Fatalf("trial %d output %d: hw=%v sw=%v (frame %v)",
					trial, j, hw, sw, frame)
			}
		}
	}
}

func TestDeployRejectsUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Linear layer.
	lin, _ := NewParrotNet(4, 64, rng)
	if _, err := Deploy(lin); err == nil {
		t.Error("linear head should be rejected")
	}
	// Oversized fan-in (two axons per input plus bias exceed a core).
	big := NewDense(200, 8, rng)
	netBig, _ := NewNetwork(big)
	if _, err := Deploy(netBig); err == nil {
		t.Error("fan-in > 128 should be rejected")
	}
	// Conv layer.
	conv, _ := NewConv2D(1, 8, 8, 2, 3, 1, 1, rng)
	head := NewDense(conv.OutDim(), 1, rng)
	netConv, _ := NewNetwork(conv, head)
	if _, err := Deploy(netConv); err == nil {
		t.Error("conv deployment should be rejected")
	}
}

func TestDeployUsageAndLatency(t *testing.T) {
	net := buildBinaryNet(t, 3)
	dep, err := Deploy(net)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Latency != 4 {
		t.Errorf("latency = %d, want 4 (2 per layer)", dep.Latency)
	}
	// 2 layers + 2 splitters + clock = 5 cores.
	if dep.Model.NumCores() != 5 {
		t.Errorf("cores = %d, want 5", dep.Model.NumCores())
	}
	if dep.Usage["eedn/clock"] != 1 {
		t.Errorf("usage: %v", dep.Usage)
	}
}

func TestDeployRunPassErrors(t *testing.T) {
	net := buildBinaryNet(t, 3)
	dep, _ := Deploy(net)
	sim, _ := truenorth.NewSimulator(dep.Model, 1)
	if _, err := dep.RunPass(sim, make([]float64, 3)); err == nil {
		t.Error("wrong frame size should error")
	}
}

func BenchmarkDeployedPass(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l1 := NewDense(100, 120, rng)
	l2 := NewDense(120, 18, rng)
	for _, d := range []*Dense{l1, l2} {
		for i := range d.Hidden {
			d.Hidden[i] = float64(rng.Intn(3)-1) * 0.9
		}
		d.redeploy()
	}
	net, _ := NewNetwork(l1, l2)
	dep, err := Deploy(net)
	if err != nil {
		b.Fatal(err)
	}
	sim, _ := truenorth.NewSimulator(dep.Model, 1)
	frame := make([]float64, 100)
	for i := range frame {
		frame[i] = float64(rng.Intn(2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = dep.RunPass(sim, frame)
	}
}
