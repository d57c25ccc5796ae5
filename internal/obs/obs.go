// Package obs is the repo-wide telemetry layer: counters, gauges,
// bucket histograms and step series behind a lock-cheap registry,
// span-based wall-clock tracing, JSON/CSV snapshot export, and an
// optional HTTP endpoint (metrics dump plus net/http/pprof).
//
// Telemetry is off by default and every instrumentation site is gated
// on Enabled(), a single atomic load, so hot paths (simulator ticks,
// SGD inner loops, sliding-window scans) pay nothing measurable when
// the layer is dark. Modules additionally instrument at coarse
// boundaries — per run, per epoch, per pyramid level — never per
// spike or per window, so even enabled runs stay cheap.
//
// The package is dependency-free (standard library only) by design:
// it sits below every other internal package and must never create an
// import cycle or pull a vendored dep into the hot path.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates all instrumentation sites. Accessed with atomics so
// the check is one uncontended load on hot paths.
var enabled atomic.Bool

// Enable turns telemetry collection on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns telemetry collection off process-wide.
func Disable() { enabled.Store(false) }

// Enabled reports whether telemetry collection is on. Instrumentation
// sites branch on this before doing any work.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Set overwrites the counter, for publishing a module-local tally
// (e.g. the simulator's spikesRouted field) at a collection boundary.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Gauge is a float64 metric holding the latest observed value.
type Gauge struct {
	bits atomic.Uint64
}

// Set records v as the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value Set.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// SeriesPoint is one (step, value) observation of a Series.
type SeriesPoint struct {
	Step  float64 `json:"step"`
	Value float64 `json:"value"`
}

// Series is an append-only ordered sequence of (step, value) pairs,
// the shape of training curves (epoch -> loss) and per-round tallies.
type Series struct {
	mu     sync.Mutex
	points []SeriesPoint
}

// Append records one point.
func (s *Series) Append(step, value float64) {
	s.mu.Lock()
	s.points = append(s.points, SeriesPoint{Step: step, Value: value})
	s.mu.Unlock()
}

// Points returns a copy of the recorded points.
func (s *Series) Points() []SeriesPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SeriesPoint(nil), s.points...)
}

// Len returns the number of recorded points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// Registry holds named metrics. Get-or-create takes a short RWMutex
// critical section; after first use each call site holds a pointer
// and updates are lock-free (counters, gauges, histograms) or
// per-metric locked (series).
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	bucketHists map[string]*BucketHistogram
	series      map[string]*Series

	spanMu sync.Mutex
	spans  []*Span
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		bucketHists: map[string]*BucketHistogram{},
		series:      map[string]*Series{},
	}
}

// std is the process-wide default registry used by package-level
// accessors; modules instrument against it so one snapshot covers the
// whole pipeline.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// BucketHistogram returns the named fixed-bucket histogram, creating
// it with the given bucket upper bounds on first use. Later calls
// return the existing histogram regardless of the bounds argument, so
// a metric's buckets are fixed by whichever site reaches it first —
// use one preset per metric name (the package-level *Buckets vars).
func (r *Registry) BucketHistogram(name string, bounds []float64) *BucketHistogram {
	r.mu.RLock()
	h := r.bucketHists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.bucketHists[name]; h == nil {
		h = NewBucketHistogram(bounds)
		r.bucketHists[name] = h
	}
	return h
}

// Series returns the named series, creating it on first use.
func (r *Registry) Series(name string) *Series {
	r.mu.RLock()
	s := r.series[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.series[name]; s == nil {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// Reset drops every metric and recorded span, returning the registry
// to empty. Held metric pointers from before the Reset keep working
// but are no longer visible in snapshots.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.bucketHists = map[string]*BucketHistogram{}
	r.series = map[string]*Series{}
	r.mu.Unlock()
	r.spanMu.Lock()
	r.spans = nil
	r.spanMu.Unlock()
}

// Package-level accessors against the default registry. They are the
// form instrumentation sites use:
//
//	if obs.Enabled() {
//	    obs.CounterM("truenorth.spikes_routed").Set(s.spikesRouted)
//	}

// CounterM returns the named counter from the default registry.
func CounterM(name string) *Counter { return std.Counter(name) }

// GaugeM returns the named gauge from the default registry.
func GaugeM(name string) *Gauge { return std.Gauge(name) }

// BucketHistogramM returns the named fixed-bucket histogram from the
// default registry, creating it with bounds on first use.
func BucketHistogramM(name string, bounds []float64) *BucketHistogram {
	return std.BucketHistogram(name, bounds)
}

// SeriesM returns the named series from the default registry.
func SeriesM(name string) *Series { return std.Series(name) }

// sortedKeys returns map keys in lexical order, for deterministic
// exports.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtFloat renders a float for CSV export.
func fmtFloat(v float64) string { return fmt.Sprintf("%g", v) }
