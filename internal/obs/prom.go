package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), the scrape
// surface `GET /metrics` serves. Mapping from the registry:
//
//   - Counter  -> counter
//   - Gauge    -> gauge
//   - BucketHistogram -> histogram (`_bucket{le=...}` cumulative
//     finite buckets plus `+Inf`, `_sum`, `_count`)
//   - Series are not exposed: an unbounded (step, value) log is not
//     scrape-safe. They remain in the JSON/CSV snapshot exports.
//
// Metric names map dots to underscores (detect.band_ms ->
// detect_band_ms); ordering is lexical per kind, so output is stable
// for golden tests and scrape diffing.

// promName sanitizes a registry metric name into the Prometheus
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value. Prometheus accepts NaN/Inf
// spellings as produced by strconv for float64.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus writes the registry's metrics in Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	buckets := make(map[string]*BucketHistogram, len(r.bucketHists))
	for k, v := range r.bucketHists {
		buckets[k] = v
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, k := range sortedKeys(counters) {
		n := promName(k)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, counters[k].Value())
	}
	for _, k := range sortedKeys(gauges) {
		n := promName(k)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(gauges[k].Value()))
	}
	for _, k := range sortedKeys(buckets) {
		n := promName(k)
		s := buckets[k].Summary()
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		for _, bc := range s.Buckets {
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, promFloat(bc.LE), bc.Count)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, s.Count)
		fmt.Fprintf(&b, "%s_sum %s\n", n, promFloat(s.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", n, s.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePrometheus writes the default registry in exposition format.
func WritePrometheus(w io.Writer) error { return std.WritePrometheus(w) }
