package eedn

import (
	"math/rand"
	"runtime"
	"testing"
)

// withProcs raises GOMAXPROCS to at least n for the test, so
// goroutines a test starts run at the same time even on single-CPU
// machines.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev >= n {
		return
	}
	runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// parallelTask builds a learnable binary problem.
func parallelTask(n int, seed int64) (xs, ys [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := make([]float64, 16)
		label := 1.0
		if i%2 == 1 {
			label = -1
		}
		for j := 0; j < 8; j++ {
			lo, hi := j, j+8
			if label < 0 {
				lo, hi = hi, lo
			}
			x[lo] = 0.7 + 0.3*rng.Float64()
			x[hi] = 0.3 * rng.Float64()
		}
		xs = append(xs, x)
		ys = append(ys, []float64{label})
	}
	return xs, ys
}

func BenchmarkTrainSerialWide(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, _ := NewClassifierNet(1024, 128, 1, rng)
	xs := make([][]float64, 64)
	ys := make([][]float64, 64)
	for i := range xs {
		x := make([]float64, 1024)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
		ys[i] = []float64{float64(2*(i%2) - 1)}
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.BatchSize = 64
	cfg.Loss = LossHinge
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = net.Train(xs, ys, cfg)
	}
}
