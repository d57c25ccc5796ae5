// Positive fixture: telemetry published from inside loops with no
// obs.Enabled() gate anywhere in the function.
package detect

import "fixture/internal/obs"

func scanAll(windows []int) int {
	hits := 0
	for _, w := range windows {
		obs.CounterM("detect.windows").Inc()
		if w > 0 {
			hits++
		}
	}
	return hits
}

func perLevel(levels [][]int) {
	for _, level := range levels {
		obs.HistogramM("detect.level_windows").Observe(float64(len(level)))
	}
}

// Publishing from a closure that runs per iteration is the same bug.
func viaClosure(ticks int) {
	for t := 0; t < ticks; t++ {
		func() { obs.GaugeM("sim.tick").Set(float64(t)) }()
	}
}
