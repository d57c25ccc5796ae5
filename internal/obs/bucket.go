package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// BucketHistogram is the package's one histogram kind: a fixed set of
// upper bounds with one atomic counter each. It keeps no samples, so
// quantiles are bucket estimates, but it has the properties a scrape
// surface needs:
//
//   - Observe is lock-free and allocation-free (one atomic add per
//     bucket plus a CAS loop for the sum), safe on hot paths.
//   - Two histograms with the same bounds Merge exactly, so
//     per-worker, per-shard or per-simulator instances aggregate
//     without bias.
//   - The cumulative-bucket form is exactly Prometheus's histogram
//     exposition (`_bucket{le=...}`, `_sum`, `_count`), so
//     `histogram_quantile` works server-side across scrapes.
//
// Pick buckets from the per-domain presets below so dashboards and
// the pcnn-bench sentinel see stable bound sets across changes.
type BucketHistogram struct {
	// bounds are the ascending bucket upper bounds; immutable after
	// construction. counts[i] tallies observations v <= bounds[i] and
	// > bounds[i-1]; counts[len(bounds)] is the +Inf overflow bucket.
	bounds  []float64
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Per-domain bucket presets. Every preset is ascending and finite; the
// +Inf overflow bucket is implicit.
var (
	// LatencyMSBuckets covers sub-50µs inner-loop timings up to
	// multi-second phases, for *_ms metrics (detect.band_ms,
	// detect.level_ms, eedn.epoch_ms, ...).
	LatencyMSBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}
	// SecondsBuckets covers 0.5ms..30s whole-run durations, for
	// *_seconds metrics (truenorth.run_duration_seconds).
	SecondsBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	// WindowBuckets covers per-level sliding-window counts
	// (detect.level_windows) up to a full-HD level 0 (233x120 =
	// 27,960 windows).
	WindowBuckets = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	// SpikeBuckets covers per-tick spike/active-core tallies
	// (truenorth.active_cores_per_tick), which are bounded by fabric
	// size — 4608 cores for the multi-chip sweep — and heavily skewed
	// toward zero.
	SpikeBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384}
	// CountBuckets covers tallies from training iterations (epochs to
	// converge) up to whole-run activity totals (truenorth.core_fires,
	// truenorth.run_spikes_routed), on a 1-2-5 series to 1e8.
	CountBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
		2000, 5000, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8}
	// RatioBuckets covers [0, 1] efficiency ratios
	// (detect.worker_utilization), denser near the healthy top end.
	RatioBuckets = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1}
)

// NewBucketHistogram builds a histogram over the given upper bounds.
// The bounds are copied, sorted, and deduplicated (NaNs and +-Inf
// dropped); nil or empty bounds fall back to LatencyMSBuckets so a
// histogram is always usable.
func NewBucketHistogram(bounds []float64) *BucketHistogram {
	clean := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsNaN(b) && !math.IsInf(b, 0) {
			clean = append(clean, b)
		}
	}
	sort.Float64s(clean)
	dedup := clean[:0]
	for i, b := range clean {
		if i == 0 || b != clean[i-1] {
			dedup = append(dedup, b)
		}
	}
	if len(dedup) == 0 {
		dedup = append(dedup, LatencyMSBuckets...)
	}
	return &BucketHistogram{
		bounds: dedup,
		counts: make([]atomic.Uint64, len(dedup)+1),
	}
}

// Observe records one sample. It performs no allocations and takes no
// locks: a linear scan over the (small, cache-resident) bound slice,
// two atomic adds, and a CAS loop for the float sum.
//
//pcnn:hotpath
func (h *BucketHistogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *BucketHistogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *BucketHistogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the histogram's bucket upper bounds.
func (h *BucketHistogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// Merge folds o's observations into h. Both histograms must share the
// same bounds (true for any two histograms built from the same
// preset); bucket counts and sums add exactly, which is what makes
// the type safe to keep per-worker and aggregate at a boundary.
func (h *BucketHistogram) Merge(o *BucketHistogram) error {
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("obs: merging bucket histograms with %d vs %d bounds", len(h.bounds), len(o.bounds))
	}
	for i, b := range h.bounds {
		if b != o.bounds[i] {
			return fmt.Errorf("obs: merging bucket histograms with different bounds at %d: %v vs %v", i, b, o.bounds[i])
		}
	}
	for i := range h.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.count.Add(o.count.Load())
	v := o.Sum()
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return nil
		}
	}
}

// BucketCount is one cumulative bucket of a summary: Count
// observations were <= LE.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// BucketHistogramSummary is the export form of a BucketHistogram:
// cumulative finite buckets plus exact count and sum. The implicit
// +Inf bucket equals Count.
type BucketHistogramSummary struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets"`
}

// summary captures the histogram's current state. Concurrent Observes
// may land between bucket reads; each bucket is individually exact and
// the cumulative form is re-derived here, so a snapshot is at worst a
// few observations torn — acceptable for a monotone scrape surface.
func (h *BucketHistogram) summary() BucketHistogramSummary {
	s := BucketHistogramSummary{
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Buckets: make([]BucketCount, len(h.bounds)),
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		s.Buckets[i] = BucketCount{LE: b, Count: cum}
	}
	return s
}

// Summary returns the histogram's cumulative-bucket export form.
func (h *BucketHistogram) Summary() BucketHistogramSummary { return h.summary() }

// Quantile estimates the q-quantile (0 <= q <= 1) from the cumulative
// buckets by linear interpolation within the containing bucket —
// the same estimate Prometheus's histogram_quantile computes. The
// first bucket interpolates from 0 (or from its bound when the bound
// is negative); mass in the +Inf overflow bucket reports the largest
// finite bound. Returns NaN when empty.
func (s BucketHistogramSummary) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, b := range s.Buckets {
		if float64(b.Count) < rank {
			continue
		}
		lo := 0.0
		var below uint64
		if i > 0 {
			lo = s.Buckets[i-1].LE
			below = s.Buckets[i-1].Count
		} else if b.LE < 0 {
			lo = b.LE
		}
		inBucket := b.Count - below
		if inBucket == 0 {
			return b.LE
		}
		frac := (rank - float64(below)) / float64(inBucket)
		return lo + (b.LE-lo)*frac
	}
	// Rank falls in the +Inf overflow bucket.
	return s.Buckets[len(s.Buckets)-1].LE
}

// Mean returns the exact mean of the observations, or NaN when empty.
func (s BucketHistogramSummary) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}
