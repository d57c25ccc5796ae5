// Positive fixture: a consumer of internal/fixed doing float
// arithmetic inside its fixed-point datapath file.
package hog

import "fixture/internal/fixed"

var q = fixed.Q{Total: 16, Frac: 8}

// Mixing a float correction factor into a Q datapath off the
// sanctioned boundary.
func gradient(a, b int64, gamma float64) int64 {
	corrected := float64(q.Sub(a, b)) * gamma
	return int64(corrected)
}

func accumulate(h []float64) float64 {
	var s float64
	for _, v := range h {
		s += v
	}
	return s * 0.5
}
