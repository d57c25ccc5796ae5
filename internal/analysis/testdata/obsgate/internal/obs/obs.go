// Package obs is a stub of the telemetry layer: just the gate and the
// publish calls the fixtures use.
package obs

type Counter struct{ n uint64 }

func (c *Counter) Inc()         { c.n++ }
func (c *Counter) Add(n uint64) { c.n += n }

type Gauge struct{ v float64 }

func (g *Gauge) Set(v float64) { g.v = v }

type Histogram struct{ last float64 }

func (h *Histogram) Observe(v float64) { h.last = v }

var on bool

func Enabled() bool                { return on }
func CounterM(string) *Counter     { return &Counter{} }
func GaugeM(string) *Gauge         { return &Gauge{} }
func HistogramM(string) *Histogram { return &Histogram{} }
