package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var updateProm = flag.Bool("update-prom", false, "rewrite the Prometheus exposition golden file")

// promTestRegistry builds a registry exercising every metric kind with
// deterministic values, including names that need sanitizing.
func promTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("detect.windows_scanned").Add(1234)
	r.Counter("detect.descriptor_errors").Add(0)
	r.Gauge("detect.windows_per_sec").Set(10178.6)
	r.Gauge("9weird-name.with/slash").Set(-1.5)
	bh := r.BucketHistogram("detect.band_ms", []float64{0.5, 1, 2.5})
	for _, v := range []float64{0.2, 0.4, 0.9, 2, 7} {
		bh.Observe(v)
	}
	r.Series("detect.level_ms_series").Append(0, 3) // must NOT be exposed
	return r
}

// Regenerate with: go test ./internal/obs -run PrometheusGolden -update-prom
func TestPrometheusGolden(t *testing.T) {
	r := promTestRegistry()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.Bytes()
	golden := filepath.Join("testdata", "prometheus.golden")
	if *updateProm {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-prom to create): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("exposition drifted from golden:\n--- want\n%s\n--- got\n%s\nif intended, regenerate with -update-prom", want, got)
	}
	// Stable output: a second write must be byte-identical (map
	// iteration must not leak into ordering).
	var b2 bytes.Buffer
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b2.Bytes()) {
		t.Error("two writes of the same registry differ; ordering is not stable")
	}
}

var (
	promNameRE   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// TestPrometheusFormatLint runs promtool-style checks over the
// exposition: TYPE before samples, legal names, cumulative le buckets,
// and +Inf bucket == _count for every histogram.
func TestPrometheusFormatLint(t *testing.T) {
	var b bytes.Buffer
	if err := promTestRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	typed := map[string]string{} // base name -> type
	lastCum := map[string]float64{}
	infCount := map[string]float64{}
	counts := map[string]float64{}
	for ln, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if !promNameRE.MatchString(f[2]) {
				t.Errorf("line %d: illegal metric name %q", ln+1, f[2])
			}
			if _, dup := typed[f[2]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, f[2])
			}
			typed[f[2]] = f[3]
			continue
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparsable sample: %q", ln+1, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			t.Errorf("line %d: sample %s before any TYPE for %s", ln+1, name, base)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("line %d: bad value %q", ln+1, valStr)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le := strings.TrimSuffix(strings.TrimPrefix(labels, `{le="`), `"}`)
			if le == "+Inf" {
				infCount[base] = val
			} else if _, err := strconv.ParseFloat(le, 64); err != nil {
				t.Errorf("line %d: bad le label %q", ln+1, labels)
			}
			if prev, ok := lastCum[base]; ok && val < prev {
				t.Errorf("line %d: %s buckets not cumulative: %v after %v", ln+1, base, val, prev)
			}
			lastCum[base] = val
		case strings.HasSuffix(name, "_count"):
			counts[base] = val
		}
	}
	for base, typ := range typed {
		if typ == "histogram" {
			if infCount[base] != counts[base] {
				t.Errorf("%s: +Inf bucket %v != _count %v", base, infCount[base], counts[base])
			}
		}
	}
	if strings.Contains(b.String(), "level_ms_series") {
		t.Error("series leaked into exposition; series are snapshot-only")
	}
}

func TestPromNameAndEscape(t *testing.T) {
	for in, want := range map[string]string{
		"detect.band_ms": "detect_band_ms",
		"9abc":           "_abc",
		"a-b/c d":        "a_b_c_d",
		"ok_name:x9":     "ok_name:x9",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("promFloat(+Inf) = %q", got)
	}
}
