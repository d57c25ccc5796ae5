package obs

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// withEnabled runs fn with telemetry on, restoring the prior state.
func withEnabled(t *testing.T, fn func()) {
	t.Helper()
	prev := Enabled()
	Enable()
	defer func() {
		if !prev {
			Disable()
		}
	}()
	fn()
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	if c2 := r.Counter("a.b"); c2 != c {
		t.Fatalf("Counter(a.b) returned a different pointer on second call")
	}
	c.Add(3)
	c.Inc()
	if got := r.Counter("a.b").Value(); got != 4 {
		t.Fatalf("counter value = %d, want 4", got)
	}

	g := r.Gauge("g")
	g.Set(2.5)
	if got := r.Gauge("g").Value(); got != 2.5 {
		t.Fatalf("gauge value = %v, want 2.5", got)
	}

	if r.BucketHistogram("h", LatencyMSBuckets) != r.BucketHistogram("h", LatencyMSBuckets) {
		t.Fatalf("BucketHistogram(h) not stable")
	}
	if r.Series("s") != r.Series("s") {
		t.Fatalf("Series(s) not stable")
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Reset()
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("after Reset counter = %d, want 0", got)
	}
	if snap := r.Snapshot(); len(snap.Counters) != 1 || snap.Counters["c"] != 0 {
		t.Fatalf("snapshot after reset = %+v", snap.Counters)
	}
}

func TestSeriesAppendOrder(t *testing.T) {
	s := &Series{}
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(i*i))
	}
	pts := s.Points()
	if len(pts) != 5 || s.Len() != 5 {
		t.Fatalf("len = %d/%d, want 5", len(pts), s.Len())
	}
	for i, p := range pts {
		if p.Step != float64(i) || p.Value != float64(i*i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

func TestSpanNesting(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		root := r.StartSpan("root")
		child := root.StartChild("child")
		grand := child.StartChild("grand")
		time.Sleep(2 * time.Millisecond)
		grand.End()
		child.End()
		sibling := root.StartChild("sibling")
		sibling.End()
		root.End()

		spans := r.Spans()
		if len(spans) != 1 {
			t.Fatalf("root spans = %d, want 1", len(spans))
		}
		got := spans[0]
		if got.Name != "root" || len(got.Children) != 2 {
			t.Fatalf("root = %q with %d children, want root/2", got.Name, len(got.Children))
		}
		if got.Children[0].Name != "child" || got.Children[1].Name != "sibling" {
			t.Fatalf("children = %q,%q", got.Children[0].Name, got.Children[1].Name)
		}
		if len(got.Children[0].Children) != 1 || got.Children[0].Children[0].Name != "grand" {
			t.Fatalf("grandchild missing: %+v", got.Children[0])
		}
		if got.Millis < got.Children[0].Millis {
			t.Fatalf("root %vms shorter than child %vms", got.Millis, got.Children[0].Millis)
		}
		if got.Children[0].Children[0].Millis <= 0 {
			t.Fatalf("grandchild duration = %v, want > 0", got.Children[0].Children[0].Millis)
		}

		var buf bytes.Buffer
		if err := r.WriteSpanTree(&buf); err != nil {
			t.Fatal(err)
		}
		tree := buf.String()
		for _, name := range []string{"root", "child", "grand", "sibling"} {
			if !strings.Contains(tree, name) {
				t.Errorf("span tree missing %q:\n%s", name, tree)
			}
		}
	})
}

func TestSpanDisabledIsNoop(t *testing.T) {
	Disable()
	r := NewRegistry()
	sp := r.StartSpan("off")
	if sp != nil {
		t.Fatalf("StartSpan while disabled = %v, want nil", sp)
	}
	// The nil span must be safe to use.
	child := sp.StartChild("c")
	child.End()
	sp.End()
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if got := r.Spans(); got != nil {
		t.Fatalf("spans recorded while disabled: %+v", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		r.Counter("ticks").Add(42)
		r.Gauge("rate").Set(3.25)
		h := r.BucketHistogram("lat", LatencyMSBuckets)
		for i := 1; i <= 4; i++ {
			h.Observe(float64(i))
		}
		r.Series("loss").Append(0, 0.5)
		r.Series("loss").Append(1, 0.25)
		sp := r.StartSpan("phase")
		sp.End()

		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters["ticks"] != 42 {
			t.Errorf("ticks = %d, want 42", got.Counters["ticks"])
		}
		if got.Gauges["rate"] != 3.25 {
			t.Errorf("rate = %v, want 3.25", got.Gauges["rate"])
		}
		hs := got.BucketHistograms["lat"]
		if hs.Count != 4 || hs.Sum != 10 || !reflect.DeepEqual(hs.Buckets, h.Summary().Buckets) {
			t.Errorf("lat summary = %+v, want %+v", hs, h.Summary())
		}
		// 1 | 2 | 3, 4 in the buckets <=1, <=2.5, <=5: the median
		// interpolates to the top of the <=2.5 bucket.
		if p50 := hs.Quantile(0.5); math.Abs(p50-2.5) > 1e-9 {
			t.Errorf("lat p50 = %v, want 2.5", p50)
		}
		want := []SeriesPoint{{0, 0.5}, {1, 0.25}}
		if len(got.Series["loss"]) != 2 || got.Series["loss"][0] != want[0] || got.Series["loss"][1] != want[1] {
			t.Errorf("loss series = %+v, want %+v", got.Series["loss"], want)
		}
		if len(got.Spans) != 1 || got.Spans[0].Name != "phase" {
			t.Errorf("spans = %+v", got.Spans)
		}
	})
}

func TestSnapshotCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("c1").Add(5)
	r.Gauge("g1").Set(1.5)
	r.BucketHistogram("h1", LatencyMSBuckets).Observe(2)
	r.Series("s1").Append(0, 9)

	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || strings.Join(rows[0], ",") != "kind,name,field,value" {
		t.Fatalf("csv header = %v", rows)
	}
	want := map[string]bool{
		"counter,c1,value,5":          false,
		"gauge,g1,value,1.5":          false,
		"bucket_histogram,h1,count,1": false,
		"series,s1,0,9":               false,
	}
	for _, row := range rows[1:] {
		key := strings.Join(row, ",")
		if _, ok := want[key]; ok {
			want[key] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("csv missing row %q; got:\n%v", k, rows)
		}
	}
}

func TestHTTPEndpoint(t *testing.T) {
	prev := Enabled()
	defer func() {
		if !prev {
			Disable()
		}
	}()
	r := NewRegistry()
	r.Counter("served").Add(9)
	addr, stop, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "# TYPE served counter\nserved 9\n") {
		t.Errorf("/metrics missing Prometheus counter: %s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"served": 9`) {
		t.Errorf("/metrics.json missing counter: %s", body)
	}
	if body := get("/metrics.csv"); !strings.Contains(body, "counter,served,value,9") {
		t.Errorf("/metrics.csv missing counter: %s", body)
	}
	if body := get("/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q, want ok", body)
	}
	if body := get("/buildinfo"); !strings.Contains(body, `"go_version"`) {
		t.Errorf("/buildinfo missing go_version: %s", body)
	}
	if body := get("/trace.json"); !strings.Contains(body, "traceEvents") {
		t.Errorf("/trace.json missing traceEvents: %s", body)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Errorf("/debug/pprof/cmdline empty")
	}
}

func TestSnapshotFileFormats(t *testing.T) {
	dir := t.TempDir()
	std.Counter("file.test").Set(3)
	jsonPath := dir + "/snap.json"
	csvPath := dir + "/snap.csv"
	if err := WriteSnapshotFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFile(csvPath); err != nil {
		t.Fatal(err)
	}
	jb := mustRead(t, jsonPath)
	if !strings.Contains(jb, `"file.test": 3`) {
		t.Errorf("json snapshot missing counter: %s", jb)
	}
	cb := mustRead(t, csvPath)
	if !strings.Contains(cb, "counter,file.test,value,3") {
		t.Errorf("csv snapshot missing counter: %s", cb)
	}
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestConcurrentRegistryAccess(t *testing.T) {
	withEnabled(t, func() {
		r := NewRegistry()
		const workers = 8
		const iters = 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					r.Counter("shared.counter").Inc()
					r.Gauge("shared.gauge").Set(float64(i))
					r.BucketHistogram("shared.hist", LatencyMSBuckets).Observe(float64(i))
					r.Series("shared.series").Append(float64(i), float64(w))
					sp := r.StartSpan("shared.span")
					sp.StartChild("leaf").End()
					sp.End()
					if i%100 == 0 {
						_ = r.Snapshot()
					}
				}
			}(w)
		}
		wg.Wait()
		if got := r.Counter("shared.counter").Value(); got != workers*iters {
			t.Fatalf("counter = %d, want %d", got, workers*iters)
		}
		if got := r.BucketHistogram("shared.hist", LatencyMSBuckets).Count(); got != workers*iters {
			t.Fatalf("histogram count = %d, want %d", got, workers*iters)
		}
		if got := r.Series("shared.series").Len(); got != workers*iters {
			t.Fatalf("series len = %d, want %d", got, workers*iters)
		}
		// Root spans are flight-recorder bounded: the most recent
		// spanRetention of the workers*iters roots survive.
		if got := len(r.Spans()); got != spanRetention {
			t.Fatalf("spans = %d, want %d (retention cap)", got, spanRetention)
		}
	})
}

// BenchmarkDisabledCounterSite measures the cost of a fully guarded
// instrumentation site while telemetry is off — the price every hot
// path pays. It should be on the order of a single predictable branch.
func BenchmarkDisabledCounterSite(b *testing.B) {
	Disable()
	c := std.Counter("bench.disabled")
	for i := 0; i < b.N; i++ {
		if Enabled() {
			c.Inc()
		}
	}
}

// BenchmarkEnabledCounterAdd measures the enabled atomic-add path.
func BenchmarkEnabledCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench.enabled")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
