package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// tinySizes shrinks every workload so the self-test runs in seconds.
func tinySizes() sizes {
	return sizes{
		frameW: 160, frameH: 144, personMinH: 130, personMaxH: 140,
		minFrames: 3, checkFrames: 3, lamrFrames: 3,
		segFrames: 2, minCycles: 1,
		batchW: 96, batchH: 144, batch: 2, minBatches: 1,
		minCells: 4, checkCells: 4,
		trainPos: 6, trainNeg: 12, miningScenes: 0,
		parrotSamples: 60, parrotHidden: 8, parrotEpochs: 1,
	}
}

// declared reads BENCHMARK.json at the repository root.
func declared(t *testing.T) (workloads []string, e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	return workloads, e2e, layers
}

// TestDeclaredMetricsMatchProgram holds BENCHMARK.json and the
// program's metric and workload lists equal.
func TestDeclaredMetricsMatchProgram(t *testing.T) {
	names, e2e, layers := declared(t)
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !equalStrings(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
	for _, c := range []struct {
		json map[string]string
		defs []metricDef
	}{{e2e, endToEnd}, {layers, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, program %d", len(c.json), len(c.defs))
		}
		for _, m := range c.defs {
			if u, ok := c.json[m.name]; !ok || u != m.unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program %q", m.name, u, m.unit)
			}
		}
	}
}

// TestWorkloadsTiny runs every workload at tiny sizes, untraced and
// traced, under two seeds. Every declared metric must appear with its
// unit, the outputs must check, internal telemetry must be off in the
// timed phase, and a different seed must change the inputs but not the
// set of metrics.
func TestWorkloadsTiny(t *testing.T) {
	_, e2e, layers := declared(t)
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			digests := map[int64]uint64{}
			for _, seed := range []int64{1, 2} {
				for _, trace := range []bool{false, true} {
					o := options{
						workload: wl.name, seed: seed, seconds: 1, trace: trace,
						measure: 20 * time.Millisecond, traceDir: t.TempDir(), sz: tinySizes(),
					}
					out, err := measure(wl, o, io.Discard)
					if err != nil {
						t.Fatalf("seed %d trace %v: %v", seed, trace, err)
					}
					if out.obsOnWhileTimed {
						t.Errorf("seed %d: internal telemetry on during the timed phase", seed)
					}
					res, err := report(o, out, io.Discard)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Errorf("seed %d trace %v: correct %v attempted %d failed %d",
							seed, trace, res.Correct, res.Attempted, res.Failed)
					}
					want := e2e
					if trace {
						want = layers
					}
					checkMetrics(t, res.Metrics, want, !trace)
					if d, ok := digests[seed]; ok && d != out.inputDigest {
						t.Errorf("seed %d: inputs differ between two runs", seed)
					}
					digests[seed] = out.inputDigest
				}
			}
			if digests[1] == digests[2] {
				t.Error("seeds 1 and 2 produced the same inputs")
			}
		})
	}
}

// checkMetrics requires exactly the declared metrics with their units;
// end-to-end metrics must also be positive.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		case positive && !(m.Value > 0):
			t.Errorf("metric %s = %v, want > 0", name, m.Value)
		}
	}
}

func equalStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunRejectsBadArguments checks the command's exit codes.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "tn-cell", "--seconds", "0"},
		{"--workload", "tn-cell", "--trace", "2"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}
