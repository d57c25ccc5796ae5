package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func findDelta(t *testing.T, deltas []delta, key string) delta {
	t.Helper()
	for _, d := range deltas {
		if d.Key == key {
			return d
		}
	}
	t.Fatalf("no delta for %q in %v", key, deltas)
	return delta{}
}

func snapshotWith(gauges map[string]float64, counters map[string]uint64) obs.Snapshot {
	return obs.Snapshot{Counters: counters, Gauges: gauges}
}

func TestCompareThroughputRegression(t *testing.T) {
	base := snapshotWith(map[string]float64{"detect.windows_per_sec": 10000}, nil)
	// 20% drop: outside the 15% higher-better tolerance.
	fresh := snapshotWith(map[string]float64{"detect.windows_per_sec": 8000}, nil)
	d := findDelta(t, compare(base, fresh, 1), "detect.windows_per_sec")
	if !d.Regression {
		t.Error("20% throughput drop must be a regression at slack 1")
	}
	// 10% drop: inside tolerance.
	fresh = snapshotWith(map[string]float64{"detect.windows_per_sec": 9000}, nil)
	if d := findDelta(t, compare(base, fresh, 1), "detect.windows_per_sec"); d.Regression {
		t.Error("10% drop is inside the 15% noise band")
	}
	// Same 20% drop under CI slack 4 (60% band): tolerated.
	fresh = snapshotWith(map[string]float64{"detect.windows_per_sec": 8000}, nil)
	if d := findDelta(t, compare(base, fresh, 4), "detect.windows_per_sec"); d.Regression {
		t.Error("slack must widen the tolerance multiplicatively")
	}
	// Improvement never fails.
	fresh = snapshotWith(map[string]float64{"detect.windows_per_sec": 20000}, nil)
	if d := findDelta(t, compare(base, fresh, 1), "detect.windows_per_sec"); d.Regression {
		t.Error("throughput gain flagged as regression")
	}
}

func TestCompareLatencyRegression(t *testing.T) {
	// mk puts half of 100 level times at p50, which is a bucket bound,
	// and half above every bound, so the bucket-estimated p50 is
	// exactly p50.
	mk := func(p50 float64) obs.Snapshot {
		h := obs.NewBucketHistogram([]float64{5, 10, 12, 15})
		for i := 0; i < 100; i++ {
			v := p50
			if i%2 == 1 {
				v = 1000
			}
			h.Observe(v)
		}
		return obs.Snapshot{BucketHistograms: map[string]obs.BucketHistogramSummary{
			"detect.level_ms": h.Summary(),
		}}
	}
	// +50% p50 latency: outside the 30% lower-better tolerance.
	d := findDelta(t, compare(mk(10), mk(15), 1), "detect.level_ms/p50")
	if d.Base != 10 || d.Fresh != 15 {
		t.Fatalf("estimated p50 %v -> %v, want 10 -> 15", d.Base, d.Fresh)
	}
	if !d.Regression {
		t.Error("+50% latency must be a regression")
	}
	if d := findDelta(t, compare(mk(10), mk(12), 1), "detect.level_ms/p50"); d.Regression {
		t.Error("+20% latency is inside the 30% band")
	}
	// Faster is never a regression.
	if d := findDelta(t, compare(mk(10), mk(5), 1), "detect.level_ms/p50"); d.Regression {
		t.Error("latency improvement flagged")
	}
}

// TestShardHistogramsInformational pins the carve-out for the shard
// worker histograms: their observation mix depends on which models a
// run simulated, so even a 10x swing must stay diagnostic, while the
// shard<N>.ticks_per_sec gauges remain gated as throughput.
func TestShardHistogramsInformational(t *testing.T) {
	mk := func(scale float64) obs.Snapshot {
		h := obs.NewBucketHistogram(obs.LatencyMSBuckets)
		for i := 0; i < 1000; i++ {
			h.Observe(scale * float64(i%100) / 10)
		}
		s := h.Summary()
		return obs.Snapshot{
			Gauges: map[string]float64{"truenorth.shard4.ticks_per_sec": 1000 * scale},
			BucketHistograms: map[string]obs.BucketHistogramSummary{
				"truenorth.shard_busy_ms":         s,
				"truenorth.shard_barrier_wait_ms": s,
			},
		}
	}
	deltas := compare(mk(10), mk(1), 1)
	for _, d := range deltas {
		switch {
		case d.Key == "truenorth.shard4.ticks_per_sec":
			if !d.Regression {
				t.Error("shard ticks_per_sec collapse must stay a gated regression")
			}
		case d.Regression:
			t.Errorf("%s flagged as regression; shard worker histograms are informational", d.Key)
		}
	}
}

func TestCompareBucketHistogramQuantiles(t *testing.T) {
	mk := func(scale float64) obs.Snapshot {
		h := obs.NewBucketHistogram(obs.LatencyMSBuckets)
		for i := 0; i < 1000; i++ {
			h.Observe(scale * float64(i%100) / 10)
		}
		return obs.Snapshot{BucketHistograms: map[string]obs.BucketHistogramSummary{
			"detect.band_ms": h.Summary(),
		}}
	}
	deltas := compare(mk(1), mk(2), 1) // all latencies doubled
	d := findDelta(t, deltas, "detect.band_ms/p99")
	if !d.Regression {
		t.Errorf("doubled bucket-histogram p99 must regress: %+v", d)
	}
	if d := findDelta(t, compare(mk(1), mk(1), 1), "detect.band_ms/p99"); d.Regression {
		t.Error("identical bucket histograms regressed")
	}
}

func TestCompareMustZero(t *testing.T) {
	base := snapshotWith(nil, map[string]uint64{"detect.descriptor_errors": 0})
	fresh := snapshotWith(nil, map[string]uint64{"detect.descriptor_errors": 3})
	if d := findDelta(t, compare(base, fresh, 1), "detect.descriptor_errors"); !d.Regression {
		t.Error("nonzero error counter must regress regardless of tolerance")
	}
	// Slack does not excuse errors.
	if d := findDelta(t, compare(base, fresh, 100), "detect.descriptor_errors"); !d.Regression {
		t.Error("slack must not apply to must-be-zero rules")
	}
	if d := findDelta(t, compare(base, base, 1), "detect.descriptor_errors"); d.Regression {
		t.Error("zero errors flagged")
	}
}

func TestCompareMissingDirectionalMetric(t *testing.T) {
	base := snapshotWith(map[string]float64{"detect.windows_per_sec": 10000, "detect.workers": 4}, nil)
	fresh := snapshotWith(map[string]float64{"detect.workers": 4}, nil)
	d := findDelta(t, compare(base, fresh, 1), "detect.windows_per_sec")
	if !d.Regression {
		t.Error("a vanished throughput gauge means the benchmark stopped measuring; must fail")
	}
	if !math.IsNaN(d.Fresh) {
		t.Errorf("missing fresh value should render as missing, got %v", d.Fresh)
	}
	// Informational metrics may come and go freely.
	base = snapshotWith(map[string]float64{"detect.workers": 4, "detect.old_gauge": 1}, nil)
	if d := findDelta(t, compare(base, fresh, 1), "detect.old_gauge"); d.Regression {
		t.Error("missing informational metric must not fail")
	}
}

func TestCompareCommittedBaselinesSelfClean(t *testing.T) {
	// The committed baselines compared against themselves must be
	// clean — this is exactly what `pcnn-bench -baseline X` does, and
	// what CI relies on for "exit zero on the committed baselines".
	for _, p := range []string{"BENCH_detect.json", "BENCH_sim.json"} {
		path := filepath.Join("..", "..", p)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("committed baseline missing: %v", err)
		}
		s, err := readSnapshot(path)
		if err != nil {
			t.Fatalf("%s does not parse: %v", p, err)
		}
		for _, d := range compare(s, s, 1) {
			if d.Regression {
				t.Errorf("%s self-compare regressed on %s: %+v", p, d.Key, d)
			}
		}
	}
}

func TestRuleClassification(t *testing.T) {
	cases := []struct {
		name, field string
		want        direction
	}{
		{"detect.descriptor_errors", "", mustZero},
		{"detect.windows_per_sec", "", higherBetter},
		{"truenorth.ticks_per_sec", "", higherBetter},
		{"detect.band_ms", "p99", lowerBetter},
		{"detect.band_ms", "mean", lowerBetter},
		{"truenorth.run_duration_seconds", "p50", lowerBetter},
		{"detect.band_ms", "count", informational},
		{"detect.band_ms", "p90", informational}, // only p50/p99/mean gate
		{"detect.workers", "", informational},
		{"detect.worker_utilization", "", higherBetter},
		{"detect.worker_utilization", "p50", higherBetter},
		{"detect.worker_utilization", "p99", higherBetter},
		{"detect.worker_utilization", "mean", higherBetter},
		{"detect.worker_utilization", "count", informational},
		{"detect.seq.motion5.frames_per_sec", "", higherBetter},
		{"detect.frames_per_sec", "", higherBetter},
		{"detect.reuse_ratio", "p50", informational},
		{"detect.reuse_ratio", "mean", informational},
		{"detect.reuse_ratio", "count", informational},
	}
	for _, c := range cases {
		if got := ruleFor(c.name, c.field); got.Dir != c.want {
			t.Errorf("ruleFor(%s, %s) = %v, want %v", c.name, c.field, got.Dir, c.want)
		}
	}
}
