// Command pcnn-bench is the bench-regression sentinel: it diffs fresh
// telemetry snapshots (BENCH_*.json, as written by -metrics or the
// BENCH_*_OUT bench hooks) against committed baselines and fails when
// a watched metric moved the wrong way by more than its noise
// tolerance. CI runs it as its own lane so a perf regression turns
// the build red with a delta table instead of drifting in silently.
//
// Usage:
//
//	pcnn-bench -baseline BENCH_detect.json -fresh /tmp/detect.json \
//	           -baseline BENCH_sim.json    -fresh /tmp/sim.json
//	pcnn-bench -slack 4 -baseline BENCH_detect.json -fresh fresh.json
//	pcnn-bench -baseline BENCH_detect.json   # self-compare: format check
//
// -baseline and -fresh repeat and pair by position; a baseline with no
// fresh counterpart is compared against itself, which validates the
// committed file still parses and trips its must-be-zero rules.
//
// Exit status: 0 clean, 1 regression, 2 usage or unreadable input.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// direction classifies how a metric is allowed to move.
type direction int

const (
	// informational metrics are reported but never fail the run.
	informational direction = iota
	// higherBetter fails when fresh drops below baseline by more than
	// the tolerance (throughput gauges).
	higherBetter
	// lowerBetter fails when fresh rises above baseline by more than
	// the tolerance (latency quantiles).
	lowerBetter
	// mustZero fails whenever the fresh value is nonzero, baseline
	// regardless (error counters).
	mustZero
)

func (d direction) String() string {
	switch d {
	case informational:
		return "info"
	case higherBetter:
		return "higher-better"
	case lowerBetter:
		return "lower-better"
	case mustZero:
		return "must-be-zero"
	}
	return "info"
}

// rule is the per-metric policy: which way it may move and how much
// relative change is attributed to noise. The -slack flag multiplies
// Tol, so CI runners with noisy neighbours widen every band at once.
type rule struct {
	Dir direction
	Tol float64
}

// ruleFor classifies one flattened metric. name is the registry metric
// name, field the summary field ("" for counters and gauges).
func ruleFor(name, field string) rule {
	switch {
	case strings.HasSuffix(name, "_errors") || strings.HasSuffix(name, ".errors"):
		return rule{Dir: mustZero}
	case field == "" && strings.HasSuffix(name, "_per_sec"):
		return rule{Dir: higherBetter, Tol: 0.15}
	case strings.HasSuffix(name, "_utilization") &&
		(field == "" || field == "p50" || field == "p99" || field == "mean"):
		// Efficiency ratios in [0, 1]: dropping utilization means idle
		// workers, so it guards upward like throughput.
		return rule{Dir: higherBetter, Tol: 0.25}
	case name == "truenorth.shard_busy_ms" || name == "truenorth.shard_barrier_wait_ms":
		// One observation per shard per tick, pooled across every model
		// and shard count a run happened to simulate: the distribution
		// tracks the benchmark mix, not code speed, so a 1-iteration
		// gate run and a full bench run see different populations.
		// Diagnostic only; the shard<N>.ticks_per_sec gauges carry the
		// gated shard-performance signal.
		return rule{Dir: informational}
	case strings.HasSuffix(name, "_ratio"):
		// Reuse/efficiency ratios (e.g. detect.reuse_ratio) track the
		// benchmark's workload mix — how static the frames happen to be
		// — not code speed, so a run with different scene composition
		// would trip a gate without any regression. Diagnostic only;
		// the frames_per_sec gauges carry the gated temporal signal.
		return rule{Dir: informational}
	case (strings.HasSuffix(name, "_ms") || strings.HasSuffix(name, "_seconds")) &&
		(field == "p50" || field == "p99" || field == "mean"):
		return rule{Dir: lowerBetter, Tol: 0.30}
	}
	return rule{Dir: informational}
}

// flatten reduces a snapshot to comparable scalars: counters and
// gauges by name, and histograms as name/p50|p99|mean|count with
// quantiles estimated from the cumulative buckets, exactly what a
// Prometheus histogram_quantile would see.
func flatten(s obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s.Counters {
		out[k] = float64(v)
	}
	for k, v := range s.Gauges {
		out[k] = v
	}
	for k, h := range s.BucketHistograms {
		out[k+"/count"] = float64(h.Count)
		if h.Count > 0 {
			out[k+"/p50"] = h.Quantile(0.5)
			out[k+"/p99"] = h.Quantile(0.99)
			out[k+"/mean"] = h.Mean()
		}
	}
	return out
}

// splitKey recovers (metric name, summary field) from a flattened key.
func splitKey(key string) (string, string) {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, ""
}

// delta is one compared metric.
type delta struct {
	Key        string
	Base       float64
	Fresh      float64
	Rule       rule
	Regression bool
}

// relChange returns (fresh-base)/|base|, 0 when both are zero.
func relChange(base, fresh float64) float64 {
	if base == 0 {
		if fresh == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (fresh - base) / math.Abs(base)
}

// compare evaluates every baseline metric against the fresh snapshot
// under the direction rules, with tolerances widened by slack.
// Metrics present only in fresh are ignored (new instrumentation is
// not a regression); metrics missing from fresh fail their rule when
// it is directional, since a vanished throughput gauge usually means
// the benchmark silently stopped measuring.
func compare(base, fresh obs.Snapshot, slack float64) []delta {
	fb, ff := flatten(base), flatten(fresh)
	keys := make([]string, 0, len(fb))
	for k := range fb {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []delta
	for _, k := range keys {
		name, field := splitKey(k)
		r := ruleFor(name, field)
		bv := fb[k]
		fv, ok := ff[k]
		d := delta{Key: k, Base: bv, Fresh: fv, Rule: r}
		switch {
		case math.IsNaN(bv) || (ok && math.IsNaN(fv)):
			// Unfillable comparison; report, never fail.
		case !ok:
			d.Fresh = math.NaN()
			d.Regression = r.Dir == higherBetter || r.Dir == lowerBetter || r.Dir == mustZero
		case r.Dir == mustZero:
			d.Regression = fv != 0
		case r.Dir == higherBetter:
			d.Regression = relChange(bv, fv) < -r.Tol*slack
		case r.Dir == lowerBetter:
			d.Regression = relChange(bv, fv) > r.Tol*slack
		}
		out = append(out, d)
	}
	return out
}

// writeTable renders the deltas as a markdown table, regressions
// first, informational rows only when -verbose asked for them.
func writeTable(w *os.File, pair string, deltas []delta, verbose bool) {
	fmt.Fprintf(w, "\n### %s\n\n", pair)
	fmt.Fprintln(w, "| metric | baseline | fresh | Δ% | rule | status |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---|---|")
	rows := 0
	for _, d := range deltas {
		if d.Rule.Dir == informational && !d.Regression && !verbose {
			continue
		}
		status := "ok"
		if d.Regression {
			status = "**REGRESSION**"
		}
		pct := "-"
		if c := relChange(d.Base, d.Fresh); !math.IsNaN(c) && !math.IsInf(c, 0) {
			pct = fmt.Sprintf("%+.1f%%", 100*c)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n",
			d.Key, fmtVal(d.Base), fmtVal(d.Fresh), pct, d.Rule.Dir, status)
		rows++
	}
	if rows == 0 {
		fmt.Fprintln(w, "| _no watched metrics_ | | | | | |")
	}
}

func fmtVal(v float64) string {
	if math.IsNaN(v) {
		return "missing"
	}
	return fmt.Sprintf("%.4g", v)
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var baselines, fresh stringList
	flag.Var(&baselines, "baseline", "committed baseline snapshot (repeatable)")
	flag.Var(&fresh, "fresh", "fresh snapshot paired with the corresponding -baseline (repeatable)")
	slack := flag.Float64("slack", 1, "noise-tolerance multiplier applied to every rule (CI uses >1 for shared runners)")
	verbose := flag.Bool("verbose", false, "include informational metrics in the delta tables")
	flag.Parse()

	if len(baselines) == 0 {
		fmt.Fprintln(os.Stderr, "pcnn-bench: at least one -baseline is required")
		flag.Usage()
		os.Exit(2)
	}
	if len(fresh) > len(baselines) {
		fmt.Fprintln(os.Stderr, "pcnn-bench: more -fresh files than -baseline files")
		os.Exit(2)
	}
	if *slack <= 0 {
		fmt.Fprintln(os.Stderr, "pcnn-bench: -slack must be positive")
		os.Exit(2)
	}

	regressions := 0
	for i, bp := range baselines {
		base, err := readSnapshot(bp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcnn-bench: %v\n", err)
			os.Exit(2)
		}
		fp := bp // self-compare validates the committed file
		fr := base
		if i < len(fresh) {
			fp = fresh[i]
			if fr, err = readSnapshot(fp); err != nil {
				fmt.Fprintf(os.Stderr, "pcnn-bench: %v\n", err)
				os.Exit(2)
			}
		}
		deltas := compare(base, fr, *slack)
		for _, d := range deltas {
			if d.Regression {
				regressions++
			}
		}
		writeTable(os.Stdout, fmt.Sprintf("%s vs %s", bp, fp), deltas, *verbose)
	}
	if regressions > 0 {
		fmt.Printf("\npcnn-bench: %d regression(s)\n", regressions)
		os.Exit(1)
	}
	fmt.Println("\npcnn-bench: no regressions")
}

func readSnapshot(path string) (obs.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer f.Close()
	s, err := obs.ReadSnapshot(f)
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
