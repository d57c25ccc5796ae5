package eedn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestSaveLoadDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, err := NewParrotNet(18, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := net.Forward(x)

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := got.Forward(x)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("output %d differs after round trip: %v vs %v", i, out[i], want[i])
		}
	}
	// The loaded network must be trainable (optimizer state rebuilt).
	xs := [][]float64{x}
	ys := [][]float64{make([]float64, 18)}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	if _, err := got.Train(xs, ys, cfg); err != nil {
		t.Fatalf("loaded network not trainable: %v", err)
	}
}

func TestSaveLoadConvRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, err := NewMonolithicNet(rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, net.InDim())
	for i := range x {
		x[i] = float64(i%9) / 9
	}
	a, b := net.Forward(x), got.Forward(x)
	if a[0] != b[0] {
		t.Fatalf("conv round trip output differs: %v vs %v", a[0], b[0])
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"version":2,"layers":[]}`,
		`{"version":1,"layers":[]}`,
		`{"version":1,"layers":[{"kind":"warp"}]}`,
		`{"version":1,"layers":[{"kind":"dense","in":2,"out":1,"hidden":[1],"bias":[0]}]}`,
		`{"version":1,"layers":[{"kind":"conv","in_c":3,"out_c":4,"groups":2,"k":3,"stride":1,"in_h":8,"in_w":8,"hidden":[],"bias":[]}]}`,
		// In x Out wraps to 0, matching the empty hidden slice.
		`{"version":1,"layers":[{"kind":"dense","in":4611686018427387904,"out":4,"hidden":[],"bias":[0,0,0,0]}]}`,
		// Zero input height: OutDim would be -3.
		`{"version":1,"layers":[{"kind":"conv","in_c":1,"in_h":0,"in_w":4,"out_c":1,"k":3,"stride":1,"groups":1,"hidden":[0,0,0,0,0,0,0,0,0],"bias":[0]}]}`,
		// Kernel larger than the input: OutDim would be 0.
		`{"version":1,"layers":[{"kind":"conv","in_c":1,"in_h":2,"in_w":2,"out_c":1,"k":3,"stride":1,"groups":1,"hidden":[0,0,0,0,0,0,0,0,0],"bias":[0]}]}`,
		// Kernel area K*K wraps to 0.
		`{"version":1,"layers":[{"kind":"conv","in_c":1,"in_h":4294967296,"in_w":4294967296,"out_c":1,"k":4294967296,"stride":1,"groups":1,"hidden":[],"bias":[0]}]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail to load", i)
		}
	}
}

// fuzzLoadMaxInDim caps the input width FuzzLoad feeds to an accepted
// network. Load bounds every weight count by the bytes it reads, but a
// conv layer's input size is free, so an honest model can demand an
// input too large to allocate in a fuzz iteration.
const fuzzLoadMaxInDim = 1 << 12

// FuzzLoad checks that Load never panics, that every network it accepts
// has positive dimensions and runs Forward on a zero input, returning
// OutDim values, and that the network reloads from its own Save.
func FuzzLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	parrotNet, _ := NewParrotNet(4, 3, rng)
	conv, _ := NewConv2D(2, 4, 3, 2, 2, 1, 2, rng)
	head := NewDense(conv.OutDim(), 1, rng)
	head.Linear = true
	convNet, _ := NewNetwork(conv, head)
	for _, n := range []*Network{parrotNet, convNet} {
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if net.InDim() <= 0 || net.OutDim() <= 0 {
			t.Fatalf("accepted a %d -> %d network", net.InDim(), net.OutDim())
		}
		if net.InDim() > fuzzLoadMaxInDim {
			return
		}
		if out := net.Forward(make([]float64, net.InDim())); len(out) != net.OutDim() {
			t.Fatalf("Forward returned %d values, OutDim is %d", len(out), net.OutDim())
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded network: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("reload of a saved network: %v", err)
		}
	})
}
