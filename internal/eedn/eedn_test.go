package eedn

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrinarize(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0.7, 1}, {0.5, 1}, {0.49, 0}, {0, 0}, {-0.49, 0}, {-0.5, -1}, {-1, -1},
	}
	for _, c := range cases {
		if got := Trinarize(c.in); got != c.want {
			t.Errorf("Trinarize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSTEWindow(t *testing.T) {
	if steWindow(0) != 1 || steWindow(0.5) != 0.5 || steWindow(1) != 0 ||
		steWindow(-0.5) != 0.5 || steWindow(2) != 0 {
		t.Error("STE window shape wrong")
	}
}

func TestDenseForwardUsesTrinaryWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 1, rng)
	d.Hidden[0] = 0.9  // -> +1
	d.Hidden[1] = -0.2 // -> 0 (dead zone)
	d.redeploy()
	d.Bias[0] = 0
	out := d.Forward([]float64{1, 1})
	// pre = (1 + 0)/sqrt(2) >= 0 -> fires.
	if out[0] != 1 {
		t.Errorf("forward = %v, want 1", out)
	}
	d.Bias[0] = -1 // threshold above the drive
	out = d.Forward([]float64{1, 1})
	if out[0] != 0 {
		t.Errorf("forward with bias = %v, want 0", out)
	}
}

func TestDenseLinearReadout(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(4, 1, rng)
	d.Linear = true
	for i := range d.Hidden {
		d.Hidden[i] = 1
	}
	d.redeploy()
	d.Bias[0] = 0.25
	out := d.Forward([]float64{1, 1, 1, 1})
	want := 4.0/2 + 0.25 // sum/sqrt(4) + bias
	if math.Abs(out[0]-want) > 1e-12 {
		t.Errorf("linear out = %v, want %v", out[0], want)
	}
}

func TestDensePanicsOnBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, rng)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong input size")
		}
	}()
	d.Forward([]float64{1})
}

func TestNetworkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewNetwork(); err == nil {
		t.Error("empty network should error")
	}
	a := NewDense(4, 8, rng)
	b := NewDense(9, 2, rng)
	if _, err := NewNetwork(a, b); err == nil {
		t.Error("dim mismatch should error")
	}
	c := NewDense(8, 2, rng)
	n, err := NewNetwork(a, c)
	if err != nil || n.InDim() != 4 || n.OutDim() != 2 {
		t.Errorf("valid network rejected: %v", err)
	}
}

// TestTrainLearnsLinearlySeparable checks end-to-end learning: a
// 2-layer Eedn net should learn a simple pattern discrimination.
func TestTrainLearnsLinearlySeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := NewClassifierNet(8, 16, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Class +1: energy in first half; class -1: energy in second half.
	var xs, ys [][]float64
	for i := 0; i < 200; i++ {
		x := make([]float64, 8)
		label := 1.0
		if i%2 == 1 {
			label = -1
		}
		for j := 0; j < 4; j++ {
			lo, hi := j, j+4
			if label < 0 {
				lo, hi = hi, lo
			}
			x[lo] = 0.7 + 0.3*rng.Float64()
			x[hi] = 0.3 * rng.Float64()
		}
		xs = append(xs, x)
		ys = append(ys, []float64{label})
	}
	cfg := DefaultTrainConfig()
	cfg.Loss = LossHinge
	cfg.Epochs = 40
	if _, err := net.Train(xs, ys, cfg); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range xs {
		out := net.Forward(xs[i])
		if (out[0] >= 0) == (ys[i][0] > 0) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(xs))
	if acc < 0.9 {
		t.Errorf("train accuracy = %v, want >= 0.9", acc)
	}
}

func TestTrainRegressionMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l1 := NewDense(4, 32, rng)
	l2 := NewDense(32, 2, rng)
	l2.Linear = true
	net, err := NewNetwork(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	// Target: y0 = x0 OR x1, y1 = x2 AND x3 (binary inputs).
	var xs, ys [][]float64
	for i := 0; i < 16; i++ {
		x := []float64{float64(i & 1), float64(i >> 1 & 1), float64(i >> 2 & 1), float64(i >> 3 & 1)}
		y := []float64{math.Max(x[0], x[1]), x[2] * x[3]}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 300
	cfg.LR = 0.1
	cfg.BatchSize = 4
	loss, err := net.Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Trinary weights and binary hiddens bound how tightly a small net
	// can regress; below 0.08 MSE the boolean structure is learned.
	if loss > 0.08 {
		t.Errorf("final MSE = %v, want <= 0.08", loss)
	}
}

func TestTrainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, _ := NewClassifierNet(4, 8, 1, rng)
	if _, err := net.Train(nil, nil, DefaultTrainConfig()); err == nil {
		t.Error("empty train set should error")
	}
	if _, err := net.Train([][]float64{{1, 2}}, [][]float64{{1}}, DefaultTrainConfig()); err == nil {
		t.Error("bad dims should error")
	}
	xs, ys := [][]float64{{1, 0, 1, 0}}, [][]float64{{1}}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			name string
			set  func(*TrainConfig)
		}{
			{"LR", func(c *TrainConfig) { c.LR = v }},
			{"Momentum", func(c *TrainConfig) { c.Momentum = v }},
			{"LRDecay", func(c *TrainConfig) { c.LRDecay = v }},
		} {
			cfg := DefaultTrainConfig()
			c.set(&cfg)
			if _, err := net.Train(xs, ys, cfg); err == nil {
				t.Errorf("%s = %v should error", c.name, v)
			}
		}
	}
}

func TestBinarizeDeterministicRateCode(t *testing.T) {
	x := []float64{0, 0.25, 0.5, 1}
	counts := make([]int, 4)
	const window = 8
	for tick := 0; tick < window; tick++ {
		frame := BinarizeDeterministic(x, tick, window, nil)
		for i, v := range frame {
			if v == 1 {
				counts[i]++
			}
		}
	}
	want := []int{0, 2, 4, 8}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("value %v -> %d frames, want %d", x[i], counts[i], want[i])
		}
	}
}

func TestBinarizeStochasticMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := []float64{0.3}
	hits := 0
	for i := 0; i < 4000; i++ {
		f := BinarizeStochastic(x, rng, nil)
		if f[0] == 1 {
			hits++
		}
	}
	p := float64(hits) / 4000
	if math.Abs(p-0.3) > 0.03 {
		t.Errorf("stochastic rate = %v, want ~0.3", p)
	}
}

func TestInferSpikingApproachesFullPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, err := NewParrotNet(6, 128, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.Float64()
	}
	// With a wide window, deterministic spiking inference should be
	// closer to (or as close as) a narrow window to the full pass on
	// the mean binarized input. Just verify it runs and values are
	// finite and bounded.
	for _, w := range []int{1, 4, 32} {
		out := net.InferSpiking(x, w, nil)
		if len(out) != 6 {
			t.Fatalf("out dim %d", len(out))
		}
		for _, v := range out {
			if math.IsNaN(v) {
				t.Fatal("NaN confidence")
			}
		}
	}
	if got := net.InferSpiking(x, 0, nil); len(got) != 6 {
		t.Error("window 0 should fall back to Forward")
	}
}

func TestConv2DShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := NewConv2D(2, 16, 12, 4, 3, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.OutH() != 14 || c.OutW() != 10 {
		t.Errorf("out dims %dx%d", c.OutH(), c.OutW())
	}
	if c.InDim() != 2*16*12 || c.OutDim() != 4*14*10 {
		t.Errorf("flat dims %d %d", c.InDim(), c.OutDim())
	}
	if c.FanIn() != 1*3*3 {
		t.Errorf("fan-in %d", c.FanIn())
	}
	out := c.Forward(make([]float64, c.InDim()))
	if len(out) != c.OutDim() {
		t.Errorf("forward len %d", len(out))
	}
}

func TestConv2DValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewConv2D(3, 8, 8, 4, 3, 1, 2, rng); err == nil {
		t.Error("channels not divisible by groups should error")
	}
	if _, err := NewConv2D(2, 2, 2, 2, 3, 1, 1, rng); err == nil {
		t.Error("kernel larger than input should error")
	}
	if _, err := NewConv2D(0, 8, 8, 4, 3, 1, 1, rng); err == nil {
		t.Error("zero channels should error")
	}
	// Zero input height: OutDim would be -3.
	if _, err := NewConv2D(1, 0, 4, 1, 3, 1, 1, rng); err == nil {
		t.Error("zero input height should error")
	}
	// Kernel area K*K overflows an int (it wraps to 0).
	if _, err := NewConv2D(1, 1<<32, 1<<32, 1, 1<<32, 1, 1, rng); err == nil {
		t.Error("kernel area overflowing int should error")
	}
}

func TestConv2DDetectsEdges(t *testing.T) {
	// A conv layer should be trainable to discriminate horizontal from
	// vertical stripes.
	rng := rand.New(rand.NewSource(11))
	conv, err := NewConv2D(1, 8, 8, 4, 3, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	head := NewDense(conv.OutDim(), 1, rng)
	head.Linear = true
	net, err := NewNetwork(conv, head)
	if err != nil {
		t.Fatal(err)
	}
	var xs, ys [][]float64
	for i := 0; i < 120; i++ {
		x := make([]float64, 64)
		horiz := i%2 == 0
		for y := 0; y < 8; y++ {
			for xx := 0; xx < 8; xx++ {
				var v float64
				if horiz {
					v = float64(y % 2)
				} else {
					v = float64(xx % 2)
				}
				x[y*8+xx] = v*0.8 + 0.1*rng.Float64()
			}
		}
		label := 1.0
		if !horiz {
			label = -1
		}
		xs = append(xs, x)
		ys = append(ys, []float64{label})
	}
	cfg := DefaultTrainConfig()
	cfg.Loss = LossHinge
	cfg.Epochs = 60
	cfg.LR = 0.05
	if _, err := net.Train(xs, ys, cfg); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range xs {
		if (net.Forward(xs[i])[0] >= 0) == (ys[i][0] > 0) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.85 {
		t.Errorf("conv stripe accuracy = %v, want >= 0.85", acc)
	}
}

func TestCoreEstimates(t *testing.T) {
	// Small layer: 1 core + 1 splitter core.
	if got := DenseCoreEstimate(100, 128); got != 2 {
		t.Errorf("DenseCoreEstimate(100,128) = %d, want 2", got)
	}
	// Fan-in 512 splits into 4 groups: 4 + 1 combine + splitter cores.
	got := DenseCoreEstimate(512, 256)
	if got < 6 {
		t.Errorf("DenseCoreEstimate(512,256) = %d, want >= 6", got)
	}
	rng := rand.New(rand.NewSource(1))
	net, _ := NewParrotNet(18, 256, rng)
	if c := CoreEstimate(net); c < 2 || c > 16 {
		t.Errorf("parrot core estimate = %d, outside paper ballpark (8)", c)
	}
	big, _ := NewClassifier18(7560, rng)
	if c := CoreEstimate(big); c < 100 {
		t.Errorf("18-layer estimate = %d, implausibly small", c)
	}
}

func TestConfigsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewParrotNet(0, 128, rng); err == nil {
		t.Error("0 bins should error")
	}
	if _, err := NewClassifierNet(0, 8, 1, rng); err == nil {
		t.Error("0 input should error")
	}
	mono, err := NewMonolithicNet(rng)
	if err != nil {
		t.Fatal(err)
	}
	if mono.InDim() != 64*128 {
		t.Errorf("monolithic input %d, want 8192", mono.InDim())
	}
	if mono.OutDim() != 1 {
		t.Errorf("monolithic output %d", mono.OutDim())
	}
	out := mono.Forward(make([]float64, 8192))
	if len(out) != 1 || math.IsNaN(out[0]) {
		t.Errorf("monolithic forward broken: %v", out)
	}
}

func BenchmarkDenseForward7560(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(7560, 256, rng)
	x := make([]float64, 7560)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Forward(x)
	}
}

func BenchmarkTrainEpochSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, _ := NewClassifierNet(64, 64, 2, rng)
	var xs, ys [][]float64
	for i := 0; i < 64; i++ {
		x := make([]float64, 64)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs = append(xs, x)
		ys = append(ys, []float64{float64(2*(i%2) - 1)})
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.Loss = LossHinge
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = net.Train(xs, ys, cfg)
	}
}
