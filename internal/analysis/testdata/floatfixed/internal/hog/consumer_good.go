// Negative fixture: consumers crossing into Q via the boundary calls.
package hog

import "fixture/internal/fixed"

// Float expressions quantized on entry through FromFloat/MulFloat are
// the sanctioned pattern.
func quantize(q fixed.Q, h []float64) []int64 {
	out := make([]int64, len(h))
	for i, v := range h {
		out[i] = q.FromFloat(v * v)
	}
	return out
}

// Integer-register work on raw values needs no exemption.
func sumRaw(q fixed.Q, raw []int64) int64 {
	var acc int64
	for _, r := range raw {
		acc = q.Add(acc, r)
	}
	return acc
}

// Scaling by a ROM coefficient goes through MulFloat.
func scale(q fixed.Q, raw int64, c float64) int64 {
	return q.MulFloat(raw, c/2)
}
