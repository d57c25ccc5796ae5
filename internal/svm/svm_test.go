package svm

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// gauss2 builds two Gaussian clouds in dim dimensions separated along
// the first coordinate.
func gauss2(n, dim int, sep float64, seed int64) (pos, neg [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		p := make([]float64, dim)
		q := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * 0.5
			q[j] = rng.NormFloat64() * 0.5
		}
		p[0] += sep
		q[0] -= sep
		pos = append(pos, p)
		neg = append(neg, q)
	}
	return pos, neg
}

func TestTrainSeparable(t *testing.T) {
	pos, neg := gauss2(100, 8, 2, 1)
	m, err := Train(pos, neg, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, pos, neg); acc < 0.99 {
		t.Errorf("separable accuracy = %v, want >= 0.99", acc)
	}
	// The learned direction should be dominated by coordinate 0.
	var rest float64
	for _, w := range m.W[1:] {
		rest += w * w
	}
	if m.W[0] <= 0 || m.W[0]*m.W[0] < rest {
		t.Errorf("weight vector not aligned with separation: %v", m.W)
	}
}

func TestTrainOverlapping(t *testing.T) {
	pos, neg := gauss2(200, 4, 0.4, 2)
	m, err := Train(pos, neg, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(m, pos, neg)
	if acc < 0.6 || acc > 1 {
		t.Errorf("overlapping accuracy = %v, want in (0.6, 1]", acc)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, [][]float64{{1}}, DefaultTrainOptions()); err == nil {
		t.Error("missing positives should error")
	}
	if _, err := Train([][]float64{{1}}, nil, DefaultTrainOptions()); err == nil {
		t.Error("missing negatives should error")
	}
	if _, err := Train([][]float64{{1, 2}}, [][]float64{{1}}, DefaultTrainOptions()); err == nil {
		t.Error("ragged descriptors should error")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		set  func(*TrainOptions)
	}{
		{"C = 0", func(o *TrainOptions) { o.C = 0 }},
		{"C = -1", func(o *TrainOptions) { o.C = -1 }},
		{"C = NaN", func(o *TrainOptions) { o.C = nan }},
		{"C = +Inf", func(o *TrainOptions) { o.C = inf }},
		{"C = -Inf", func(o *TrainOptions) { o.C = -inf }},
		{"Tol = -1", func(o *TrainOptions) { o.Tol = -1 }},
		{"Tol = NaN", func(o *TrainOptions) { o.Tol = nan }},
		{"Tol = +Inf", func(o *TrainOptions) { o.Tol = inf }},
		{"Tol = -Inf", func(o *TrainOptions) { o.Tol = -inf }},
		{"BiasScale = -1", func(o *TrainOptions) { o.BiasScale = -1 }},
		{"BiasScale = NaN", func(o *TrainOptions) { o.BiasScale = nan }},
		{"BiasScale = +Inf", func(o *TrainOptions) { o.BiasScale = inf }},
		{"BiasScale = -Inf", func(o *TrainOptions) { o.BiasScale = -inf }},
	} {
		opt := DefaultTrainOptions()
		c.set(&opt)
		if _, err := Train([][]float64{{1}}, [][]float64{{-1}}, opt); err == nil {
			t.Errorf("%s should error", c.name)
		}
	}
	opt := DefaultTrainOptions()
	opt.Tol, opt.BiasScale = 0, 0
	if _, err := Train([][]float64{{1}}, [][]float64{{-1}}, opt); err != nil {
		t.Errorf("Tol = 0 and BiasScale = 0: %v", err)
	}
}

func TestBiasLearnsOffset(t *testing.T) {
	// Both classes on the positive side of the origin: only a bias
	// separates them.
	var pos, neg [][]float64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		pos = append(pos, []float64{5 + rng.Float64()})
		neg = append(neg, []float64{3 + rng.Float64()})
	}
	m, err := Train(pos, neg, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, pos, neg); acc < 0.95 {
		t.Errorf("bias accuracy = %v, want >= 0.95 (B=%v)", acc, m.B)
	}
	if m.B >= 0 {
		t.Errorf("bias should be negative to offset positive clouds: %v", m.B)
	}
}

func TestScorePanicsOnBadDim(t *testing.T) {
	m := &Model{W: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Score([]float64{1})
}

// scoreOneProduct is the frozen one-product Score loop that the
// four-product loop replaced.
func scoreOneProduct(m *Model, x []float64) float64 {
	s := m.B
	for i, w := range m.W {
		s += w * x[i]
	}
	return s
}

func TestScoreMatchesOneProductLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 7560} {
		for trial := 0; trial < 20; trial++ {
			m := &Model{W: make([]float64, n), B: rng.NormFloat64()}
			x := make([]float64, n)
			for i := range x {
				// Wide magnitudes make the sum sensitive to the order
				// of additions.
				m.W[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
			}
			got, want := m.Score(x), scoreOneProduct(m, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("len %d trial %d: Score %v, one-product loop %v", n, trial, got, want)
			}
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	pos, neg := gauss2(50, 6, 1, 7)
	m1, _ := Train(pos, neg, DefaultTrainOptions())
	m2, _ := Train(pos, neg, DefaultTrainOptions())
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	pos, neg := gauss2(20, 3, 1, 9)
	m, _ := Train(pos, neg, DefaultTrainOptions())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var got Model
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.B != m.B || len(got.W) != len(m.W) {
		t.Fatal("round trip mismatch")
	}
	for i := range m.W {
		if got.W[i] != m.W[i] {
			t.Fatal("weights differ after round trip")
		}
	}
}

func TestHardNegativeMiningImproves(t *testing.T) {
	// Positives along +e0; easy negatives along -e0; hard negatives
	// hide along +e1 and only appear through mining.
	rng := rand.New(rand.NewSource(11))
	var pos, neg, hard [][]float64
	for i := 0; i < 80; i++ {
		pos = append(pos, []float64{1.5 + rng.NormFloat64()*0.2, rng.NormFloat64() * 0.2})
		neg = append(neg, []float64{-1.5 + rng.NormFloat64()*0.2, rng.NormFloat64() * 0.2})
		hard = append(hard, []float64{0.8 + rng.NormFloat64()*0.2, 1.5 + rng.NormFloat64()*0.2})
	}
	base, err := Train(pos, neg, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	baseFP := 0
	for _, x := range hard {
		if base.Score(x) > 0 {
			baseFP++
		}
	}
	if baseFP == 0 {
		t.Skip("hard negatives not hard for base model; geometry changed")
	}
	calls := 0
	mine := func(m *Model) [][]float64 {
		calls++
		var fp [][]float64
		for _, x := range hard {
			if m.Score(x) > 0 {
				fp = append(fp, x)
			}
		}
		return fp
	}
	mined, nMined, err := TrainHardNegative(pos, neg, mine, 5, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if nMined == 0 || calls == 0 {
		t.Fatal("mining did not run")
	}
	minedFP := 0
	for _, x := range hard {
		if mined.Score(x) > 0 {
			minedFP++
		}
	}
	if minedFP >= baseFP {
		t.Errorf("mining did not reduce false positives: %d -> %d", baseFP, minedFP)
	}
	// Positives should still be classified well.
	posOK := 0
	for _, x := range pos {
		if mined.Score(x) > 0 {
			posOK++
		}
	}
	if float64(posOK)/float64(len(pos)) < 0.9 {
		t.Errorf("mining sacrificed recall: %d/%d", posOK, len(pos))
	}
}

func TestTrainHardNegativeNilMiner(t *testing.T) {
	pos, neg := gauss2(10, 2, 1, 1)
	m, n, err := TrainHardNegative(pos, neg, nil, 3, DefaultTrainOptions())
	if err != nil || m == nil || n != 0 {
		t.Errorf("nil miner: %v %d %v", m, n, err)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := &Model{W: []float64{1}}
	if got := Accuracy(m, nil, nil); got != 0 {
		t.Errorf("empty accuracy = %v", got)
	}
}

func TestMarginPropertySupportVectors(t *testing.T) {
	// After training a separable problem, scores of both classes
	// should respect the margin sign and scale monotonically with
	// distance along the separating direction.
	pos, neg := gauss2(60, 5, 3, 13)
	m, _ := Train(pos, neg, DefaultTrainOptions())
	far := make([]float64, 5)
	far[0] = 10
	near := make([]float64, 5)
	near[0] = 0.1
	if !(m.Score(far) > m.Score(near)) {
		t.Error("score not monotone along separation axis")
	}
	if math.Signbit(m.Score(far)) {
		t.Error("far positive scored negative")
	}
}

func BenchmarkTrain3780(b *testing.B) {
	// Descriptor-scale training problem (reference HoG length).
	rng := rand.New(rand.NewSource(1))
	var pos, neg [][]float64
	for i := 0; i < 60; i++ {
		p := make([]float64, 3780)
		q := make([]float64, 3780)
		for j := range p {
			p[j] = rng.Float64() * 0.1
			q[j] = rng.Float64() * 0.1
		}
		p[0] += 1
		q[1] += 1
		pos = append(pos, p)
		neg = append(neg, q)
	}
	opt := DefaultTrainOptions()
	opt.Epochs = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Train(pos, neg, opt)
	}
}

func BenchmarkScore7560(b *testing.B) {
	w := make([]float64, 7560)
	x := make([]float64, 7560)
	for i := range w {
		w[i] = float64(i%7) / 7
		x[i] = float64(i%5) / 5
	}
	m := &Model{W: w}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Score(x)
	}
}
