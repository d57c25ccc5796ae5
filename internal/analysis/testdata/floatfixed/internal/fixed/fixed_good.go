// Negative fixture: integer-register arithmetic and the boundary
// functions themselves are exempt.
package fixed

type Q struct{ Total, Frac int }

// Pure integer datapath.
func mac(acc, a, b int64) int64 { return acc + a*b }

func saturate(raw, max, min int64) int64 {
	if raw > max {
		return max
	}
	if raw < min {
		return min
	}
	return raw
}

// FromFloat IS the boundary: float arithmetic is its job.
func (q Q) FromFloat(f float64) int64 {
	scaled := f * float64(int64(1)<<q.Frac)
	return int64(scaled + 0.5)
}

// ToFloat likewise.
func (q Q) ToFloat(raw int64) float64 {
	return float64(raw) / float64(int64(1)<<q.Frac)
}

// The integer-register methods the consumer fixtures call.
func (q Q) Add(a, b int64) int64 { return a + b }

func (q Q) Sub(a, b int64) int64 { return a - b }

// MulFloat quantizes its coefficient on entry, like the real one.
func (q Q) MulFloat(raw int64, c float64) int64 { return raw * q.FromFloat(c) >> q.Frac }
