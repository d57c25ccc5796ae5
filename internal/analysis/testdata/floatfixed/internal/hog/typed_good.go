// Negative fixture: constants from package math are not all floats.
package hog

import (
	"math"

	"fixture/internal/fixed"
)

// math.MaxInt32 is an integer constant; halving it is integer work.
func halfRange(q fixed.Q, raw int64) int64 {
	return q.Add(raw, math.MaxInt32/2)
}
