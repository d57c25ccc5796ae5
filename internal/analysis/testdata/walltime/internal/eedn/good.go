// Negative fixture: clock reads behind the repo's telemetry gate.
package eedn

import (
	"time"

	"fixture/internal/obs"
)

// The obs.Enabled() check marks the function as a telemetry boundary:
// its clock reads never run on the replayed path.
func gatedStep() {
	if !obs.Enabled() {
		return
	}
	start := time.Now()
	work2()
	obs.HistogramM("eedn.step_ms").Observe(float64(time.Since(start).Microseconds()) / 1000)
}

// Deriving the gate into a local is the same boundary.
func derivedGate(n int) {
	measured := obs.Enabled()
	var start time.Time
	if measured {
		start = time.Now()
	}
	work2()
	if measured {
		obs.GaugeM("eedn.rate").Set(float64(n) / time.Since(start).Seconds())
	}
}

// Pure use of the time package without reading the clock is fine.
func scale(d time.Duration) time.Duration { return d * 2 }

func work2() {}
