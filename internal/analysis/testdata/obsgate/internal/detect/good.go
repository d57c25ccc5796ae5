// Negative fixture: gated publishes and coarse-boundary publishing.
package detect

import "fixture/internal/obs"

// Early-return guard: the whole function is a telemetry boundary.
func publishSummary(counts []int) {
	if !obs.Enabled() {
		return
	}
	for _, c := range counts {
		obs.HistogramM("detect.core_fires").Observe(float64(c))
	}
}

// Derived gate inside the loop.
func perLevelGated(levels [][]int) {
	measured := obs.Enabled()
	for _, level := range levels {
		process(level)
		if measured {
			obs.HistogramM("detect.level_windows").Observe(float64(len(level)))
		}
	}
}

// Counting locally and publishing once after the loop needs no gate:
// the publish is not on the per-item path.
func coarseBoundary(windows []int) {
	total := 0
	for _, w := range windows {
		total += w
	}
	obs.CounterM("detect.windows_scanned").Add(uint64(total))
}

func process([]int) {}
