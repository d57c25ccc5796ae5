package fixed

import (
	"math"
	"testing"
)

// The saturation edges of FromFloat are load-bearing for the HoG
// datapath model: gradients at image borders routinely hit the rails,
// and the chosen behavior (documented on FromFloat) is
//
//   - exactly representable rail values convert losslessly,
//   - ±Inf saturate to Max/Min like any other out-of-range value,
//   - NaN converts to 0 (a NaN gradient means a zero vote, never a
//     poisoned rail).

func TestFromFloatExactRails(t *testing.T) {
	for _, q := range []Q{Q16_8, {Total: 8, Frac: 4}, {Total: 32, Frac: 16}, {Total: 63, Frac: 0}} {
		if got := q.FromFloat(q.ToFloat(q.Max())); got != q.Max() {
			t.Errorf("%v: FromFloat(ToFloat(Max)) = %d, want %d", q, got, q.Max())
		}
		if got := q.FromFloat(q.ToFloat(q.Min())); got != q.Min() {
			t.Errorf("%v: FromFloat(ToFloat(Min)) = %d, want %d", q, got, q.Min())
		}
		// One LSB beyond the rails must clamp, not wrap.
		if got := q.FromFloat(q.ToFloat(q.Max()) + q.Eps()); got != q.Max() {
			t.Errorf("%v: Max+eps = %d, want saturated %d", q, got, q.Max())
		}
		if got := q.FromFloat(q.ToFloat(q.Min()) - q.Eps()); got != q.Min() {
			t.Errorf("%v: Min-eps = %d, want saturated %d", q, got, q.Min())
		}
	}
}

func TestFromFloatInfinities(t *testing.T) {
	for _, q := range []Q{Q16_8, {Total: 63, Frac: 31}} {
		if got := q.FromFloat(math.Inf(1)); got != q.Max() {
			t.Errorf("%v: FromFloat(+Inf) = %d, want %d", q, got, q.Max())
		}
		if got := q.FromFloat(math.Inf(-1)); got != q.Min() {
			t.Errorf("%v: FromFloat(-Inf) = %d, want %d", q, got, q.Min())
		}
	}
}

func TestFromFloatNaN(t *testing.T) {
	if got := Q16_8.FromFloat(math.NaN()); got != 0 {
		t.Errorf("FromFloat(NaN) = %d, want 0", got)
	}
	// The sign bit of a NaN must not leak into the result.
	if got := Q16_8.FromFloat(math.Copysign(math.NaN(), -1)); got != 0 {
		t.Errorf("FromFloat(-NaN) = %d, want 0", got)
	}
}

// TestFromFloatsMatchesFromFloat holds the batch conversion to
// FromFloat element by element: on the special values (±0, NaN of
// either sign, ±Inf, subnormals, the float extremes), around each
// format's rails, and at every rounding tie (k+0.5)/One for k from -2
// to One+1 (to 300 and then from One-2 in the wide formats) together
// with its two float neighbours. Under Q16_8 that covers every tie of
// a pixel in [0, 1]; the formats whose One reaches or passes Max check
// that the fast path stops short of the rail. dst past len(src) must
// stay untouched.
func TestFromFloatsMatchesFromFloat(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
		math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1e6, -1e6,
	}
	for _, q := range []Q{Q16_8, {Total: 16, Frac: 15}, {Total: 8, Frac: 7}, {Total: 8, Frac: 4},
		{Total: 2, Frac: 1}, {Total: 32, Frac: 16}, {Total: 63, Frac: 0}, {Total: 63, Frac: 31}} {
		src := append([]float64(nil), special...)
		one := float64(q.One())
		near := func(v float64) {
			src = append(src, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
		for k := int64(-2); k <= min(q.One()+1, 300); k++ {
			near((float64(k) + 0.5) / one)
		}
		for k := max(q.One()-2, 301); k <= q.One()+1; k++ {
			near((float64(k) + 0.5) / one)
		}
		for _, raw := range []int64{q.Max(), q.Max() - 1, q.Min(), q.Min() + 1} {
			near(q.ToFloat(raw))
			near((float64(raw) + 0.5) / one)
		}
		const sentinel = -7
		dst := make([]int64, len(src)+1)
		dst[len(src)] = sentinel
		q.FromFloats(dst, src)
		for i, f := range src {
			if want := q.FromFloat(f); dst[i] != want {
				t.Fatalf("%v: FromFloats(%v) = %d, FromFloat %d", q, f, dst[i], want)
			}
		}
		if dst[len(src)] != sentinel {
			t.Fatalf("%v: FromFloats wrote past len(src)", q)
		}
	}
}
