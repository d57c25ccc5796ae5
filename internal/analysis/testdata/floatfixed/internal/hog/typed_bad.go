// Positive fixture: float arithmetic that only resolved types reveal.
package hog

import "fixture/internal/fixed"

type signal struct{ gain float64 }

func (s signal) amp() float64 { return s.gain }

// No operand is spelled as a float, but amp returns one.
func halfAmp(q fixed.Q, s signal, raw int64) int64 {
	return q.Add(raw, int64(s.amp()/2))
}

// lookalike has a Quantize method but is not fixed.Q, so its argument
// is not quantized on entry.
type lookalike struct{}

func (lookalike) Quantize(v float64) float64 { return v }

func notBoundary(l lookalike, x, y float64) float64 {
	return l.Quantize(x * y)
}
