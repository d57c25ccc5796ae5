// Positive fixture: raw wall-clock reads in library code.
package eedn

import "time"

func timedStep() time.Duration {
	start := time.Now()
	work()
	return time.Since(start)
}

func work() {}

// Keeping the clock as a function value still reads the wall clock.
var clock = time.Now
