package truenorth

// The paper's designs exchange values as spike counts over a coding
// window: an N-spike representation carries a value in [0, 1] as the
// number of spikes observed in N ticks (Sec. 5.2: 64-spike for
// NApprox, 32/4/1-spike options for Parrot). RateEncode is the
// deterministic rate code with evenly spaced spikes that feeds the
// NApprox corelet and its VoteRace software model; the Parrot
// extractor draws its stochastic code itself.

// RateEncode returns a deterministic spike train of length window for
// a value v in [0, 1]: round(v*window) spikes spaced as evenly as
// possible (Bresenham accumulation). Values outside [0, 1] are
// clamped.
func RateEncode(v float64, window int) []bool {
	if window <= 0 {
		return nil
	}
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	train := make([]bool, window)
	want := int(v*float64(window) + 0.5)
	if want == 0 {
		return train
	}
	acc := 0
	for t := 0; t < window; t++ {
		acc += want
		if acc >= window {
			acc -= window
			train[t] = true
		}
	}
	return train
}

// SpikeBits returns the effective bit resolution of an N-spike code:
// log2(window+1) rounded down to the paper's nomenclature, where
// 64-spike = 6-bit, 32-spike = 5-bit, 4-spike = 2-bit, 1-spike = 1-bit.
func SpikeBits(window int) int {
	if window <= 0 {
		return 0
	}
	if window == 1 {
		return 1 // the paper counts 1-spike as 1-bit
	}
	bitsN := 0
	for w := window; w > 0; w >>= 1 {
		bitsN++
	}
	// The paper counts 64-spike as 6-bit, i.e. log2(window) for powers
	// of two; round up otherwise.
	if window&(window-1) == 0 {
		return bitsN - 1
	}
	return bitsN
}
