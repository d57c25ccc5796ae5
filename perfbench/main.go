// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, drives the public API of the detection
// and simulation packages from a single closed-loop caller, checks the
// outputs, and prints its metrics as one JSON line:
//
//	perfbench --workload vga-stream --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics and writes the recorded spans under
// .bench_build/traces/. README.md explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// metricDef declares one reported metric. The lists below are the
// contract BENCHMARK.json repeats; the self-test holds the two equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. An op is one
// frame on the detection workloads and one cell on tn-cell.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the traced per-layer metrics. Every workload reports
// every one; a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"setup.dataset_s", "s"},
	{"setup.train_s.fpga-hog", "s"},
	{"setup.train_s.napprox", "s"},
	{"setup.train_s.parrot", "s"},
	{"setup.corelet_s", "s"},
	{"setup.warmup_s", "s"},
	{"imgproc.pyramid_ms", "ms"},
	{"imgproc.levels", "count"},
	{"hog.grid_ms", "ms"},
	{"napprox.grid_ms", "ms"},
	{"parrot.grid_ms", "ms"},
	{"parrot.cell_us", "us"},
	{"extract.cells", "count"},
	{"detect.descriptor_ms", "ms"},
	{"detect.windows", "count"},
	{"svm.score_ms", "ms"},
	{"svm.score_ns_per_window", "ns"},
	{"detect.nms_ms", "ms"},
	{"detect.candidate_ratio", "ratio"},
	{"detect.nms_keep_ratio", "ratio"},
	{"detect.band_speedup", "x"},
	{"detect.stream_speedup", "x"},
	{"detect.evaluate_ms", "ms"},
	{"detect.unattributed_ms", "ms"},
	{"detect.coverage", "ratio"},
	{"detect.lamr", "ratio"},
	{"detect.seq.frame_ms.static", "ms"},
	{"detect.seq.frame_ms.walkers", "ms"},
	{"detect.seq.frame_ms.crowd", "ms"},
	{"detect.seq.frame_ms.pan", "ms"},
	{"detect.seq.frame_ms.jitter", "ms"},
	{"detect.seq.speedup", "x"},
	{"detect.seq.reuse_ratio", "ratio"},
	{"detect.seq.cells_recomputed", "count"},
	{"truenorth.reset_us", "us"},
	{"truenorth.encode_us", "us"},
	{"truenorth.step_us", "us"},
	{"truenorth.ticks_per_s", "1/s"},
	{"truenorth.spikes_per_cell", "count"},
	{"truenorth.synaptic_events_per_cell", "count"},
	{"truenorth.hw_sw_corr", "r"},
	{"go.gc_cycles_per_op", "count"},
	{"go.alloc_kb_per_op", "KiB"},
}

// coverageTolerance bounds detect.coverage, the traced stage sum over
// the untraced Detect time at one worker: the stages must account for
// the whole scan to within this share.
const coverageTolerance = 0.15

// A run builds its workload from scratch at least minSetupReps times,
// and more (up to maxSetupReps) while the builds have taken less than
// minSetupTime, so a cheap set-up is timed over many builds spread
// across seconds of host-speed drift; setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 250
	minSetupTime = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies the host and build a result came from.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
	// Source hashes the Go sources under the working directory, which
	// identifies the code when the checkout carries no commit.
	Source string `json:"source_sha256"`
}

func hostFingerprint(o options) fingerprint {
	fp := fingerprint{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOAMD64: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: "unknown", Source: sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				fp.GOAMD64 = s.Value
			case "vcs.revision":
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, skipping dot-directories; it returns "unknown" on error.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	measure  time.Duration // timed phase length, at least
	traceDir string
	sz       sizes
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its result; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{traceDir: filepath.Join(".bench_build", "traces"), sz: fullSizes()}
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 prints per-layer metrics and writes spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	o.measure = time.Duration(o.seconds) * time.Second
	if fs.NArg() > 0 || o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>")
		return 2
	}
	fp := hostFingerprint(o)
	res, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]fingerprint{"fingerprint": fp}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// outcome is what one workload run measured, before it is shaped into
// the printed result.
type outcome struct {
	attempted, failed int
	setupS            float64       // median set-up time, seconds
	lat               []float64     // ms per op, timed phase
	busy              time.Duration // time inside the measured calls
	allocBytes        uint64        // heap bytes allocated inside them
	gcCycles          uint64        // GC cycles during the timed phase
	obsOnWhileTimed   bool
	layers            map[string]float64 // per-layer metrics by name
	spans             *tracer            // nil unless traced
	inputDigest       uint64             // hash of the generated inputs
}

// bench is one built workload: its inputs, trained partitions and
// scratch state.
type bench interface {
	// timed runs the closed loop for at least the given duration and
	// records into out.
	timed(d time.Duration, out *outcome) error
	// check verifies the timed phase's outputs outside the timed window.
	check(out *outcome) error
	// traced replays calls into each layer with spans and fills
	// out.layers.
	traced(out *outcome) error
}

// workload builds a bench from a seed, recording setup components into
// layers (seconds).
type workload struct {
	name  string
	build func(seed int64, sz sizes, layers map[string]float64) (bench, error)
}

var workloads = []workload{
	{"vga-stream", buildVGAStream},
	{"video-seq", buildVideoSeq},
	{"batch-parrot", buildBatchParrot},
	{"tn-cell", buildTNCell},
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

func runWorkload(o options, logw io.Writer) (*result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	obs.Disable()
	out, err := measure(wl, o, logw)
	if err != nil {
		return nil, err
	}
	return report(o, out, logw)
}

// report shapes a run into the printed result: the end-to-end metrics,
// or with tracing the per-layer metrics, whose spans it writes out.
func report(o options, out *outcome, logw io.Writer) (*result, error) {
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	ops := float64(len(out.lat))
	if !o.trace {
		res.Metrics["setup_s"] = metric{out.setupS, "s"}
		res.Metrics["ops_per_s"] = metric{ops / out.busy.Seconds(), "1/s"}
		res.Metrics["op_ms_p50"] = metric{stats.Quantile(out.lat, 0.5), "ms"}
		res.Metrics["op_ms_p90"] = metric{stats.Quantile(out.lat, 0.9), "ms"}
		res.Metrics["max_rss_mb"] = metric{maxRSSMiB(), "MiB"}
		return res, nil
	}
	out.layers["go.gc_cycles_per_op"] = float64(out.gcCycles) / ops
	out.layers["go.alloc_kb_per_op"] = float64(out.allocBytes) / 1024 / ops
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{out.layers[m.name], m.unit}
	}
	if cov := out.layers["detect.coverage"]; cov != 0 && math.Abs(cov-1) > coverageTolerance {
		fmt.Fprintf(logw, "perfbench: detect.coverage %.3f outside 1±%.2f\n", cov, coverageTolerance)
	}
	return res, out.spans.writeFile(o.traceDir, hostFingerprint(o))
}

// measure builds the workload several times, keeps the last build,
// and runs its timed, check and (optionally) traced phases.
func measure(wl *workload, o options, logw io.Writer) (*outcome, error) {
	var b bench
	var totals []float64
	comps := map[string][]float64{}
	var spent time.Duration
	for r := 0; r < minSetupReps || (r < maxSetupReps && spent < minSetupTime); r++ {
		layers := map[string]float64{}
		t0 := time.Now()
		nb, err := wl.build(o.seed, o.sz, layers)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		el := time.Since(t0)
		spent += el
		totals = append(totals, el.Seconds())
		for k, v := range layers {
			comps[k] = append(comps[k], v)
		}
		b = nb
	}
	out := &outcome{layers: map[string]float64{}, setupS: stats.Quantile(totals, 0.5)}
	if o.trace {
		out.spans = newTracer()
	}
	for k, v := range comps {
		out.layers[k] = stats.Quantile(v, 0.5)
	}
	fmt.Fprintf(logw, "perfbench: %s setup %.3fs (median of %d)\n", wl.name, out.setupS, len(totals))

	g0 := gcCycles()
	if err := b.timed(o.measure, out); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	out.gcCycles = gcCycles() - g0
	if out.obsOnWhileTimed {
		return nil, fmt.Errorf("%s: internal telemetry was on during the timed phase", wl.name)
	}
	if len(out.lat) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", wl.name)
	}
	fmt.Fprintf(logw, "perfbench: %s timed %d ops in %.3fs busy; ms p10 %.2f p25 %.2f p50 %.2f p75 %.2f p90 %.2f\n",
		wl.name, len(out.lat), out.busy.Seconds(), stats.Quantile(out.lat, 0.1), stats.Quantile(out.lat, 0.25),
		stats.Quantile(out.lat, 0.5), stats.Quantile(out.lat, 0.75), stats.Quantile(out.lat, 0.9))
	if err := b.check(out); err != nil {
		return nil, fmt.Errorf("%s check: %w", wl.name, err)
	}
	if o.trace {
		if err := b.traced(out); err != nil {
			return nil, fmt.Errorf("%s trace: %w", wl.name, err)
		}
	}
	return out, nil
}

// gcCycles returns the number of GC cycles the process has completed.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocMeter accumulates heap bytes allocated inside measured calls
// only, leaving out the input generator between them.
type allocMeter struct {
	s     [1]metrics.Sample
	start uint64
	total uint64
}

func newAllocMeter() *allocMeter {
	m := &allocMeter{}
	m.s[0].Name = "/gc/heap/allocs:bytes"
	return m
}

func (m *allocMeter) begin() {
	metrics.Read(m.s[:])
	m.start = m.s[0].Value.Uint64()
}

func (m *allocMeter) end() {
	metrics.Read(m.s[:])
	m.total += m.s[0].Value.Uint64() - m.start
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
