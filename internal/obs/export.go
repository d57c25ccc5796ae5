package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Snapshot is a point-in-time export of a registry: every counter,
// gauge, histogram summary, series and finished span. It round-trips
// through JSON, which is what -metrics files and the HTTP /metrics
// endpoint carry.
type Snapshot struct {
	TakenAt          string                            `json:"taken_at"`
	Counters         map[string]uint64                 `json:"counters"`
	Gauges           map[string]float64                `json:"gauges"`
	BucketHistograms map[string]BucketHistogramSummary `json:"bucket_histograms,omitempty"`
	Series           map[string][]SeriesPoint          `json:"series"`
	Spans            []SpanSummary                     `json:"spans,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		TakenAt:          time.Now().UTC().Format(time.RFC3339),
		Counters:         map[string]uint64{},
		Gauges:           map[string]float64{},
		BucketHistograms: map[string]BucketHistogramSummary{},
		Series:           map[string][]SeriesPoint{},
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	bucketHists := make(map[string]*BucketHistogram, len(r.bucketHists))
	for k, v := range r.bucketHists {
		bucketHists[k] = v
	}
	series := make(map[string]*Series, len(r.series))
	for k, v := range r.series {
		series[k] = v
	}
	r.mu.RUnlock()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range bucketHists {
		snap.BucketHistograms[k] = h.summary()
	}
	for k, s := range series {
		snap.Series[k] = s.Points()
	}
	snap.Spans = r.Spans()
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ReadSnapshot parses a JSON snapshot, the inverse of WriteJSON.
func ReadSnapshot(rd io.Reader) (Snapshot, error) {
	var s Snapshot
	err := json.NewDecoder(rd).Decode(&s)
	return s, err
}

// WriteCSV writes the snapshot as flat CSV rows of
// (kind, name, field, value), covering counters, gauges, histogram
// summaries and series points — a shape spreadsheet tooling ingests
// directly.
func (r *Registry) WriteCSV(w io.Writer) error {
	snap := r.Snapshot()
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "name", "field", "value"}); err != nil {
		return err
	}
	for _, k := range sortedKeys(snap.Counters) {
		if err := cw.Write([]string{"counter", k, "value", strconv.FormatUint(snap.Counters[k], 10)}); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(snap.Gauges) {
		if err := cw.Write([]string{"gauge", k, "value", fmtFloat(snap.Gauges[k])}); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(snap.BucketHistograms) {
		h := snap.BucketHistograms[k]
		if err := cw.Write([]string{"bucket_histogram", k, "count", strconv.FormatUint(h.Count, 10)}); err != nil {
			return err
		}
		if err := cw.Write([]string{"bucket_histogram", k, "sum", fmtFloat(h.Sum)}); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if err := cw.Write([]string{"bucket_histogram", k, "le=" + fmtFloat(b.LE), strconv.FormatUint(b.Count, 10)}); err != nil {
				return err
			}
		}
	}
	for _, k := range sortedKeys(snap.Series) {
		for _, p := range snap.Series[k] {
			if err := cw.Write([]string{"series", k, fmtFloat(p.Step), fmtFloat(p.Value)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSnapshotFile writes the default-registry snapshot to path,
// choosing the format by extension: .csv writes CSV, anything else
// writes JSON.
func WriteSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if filepath.Ext(path) == ".csv" {
		if err := std.WriteCSV(f); err != nil {
			return fmt.Errorf("obs: csv snapshot %s: %w", path, err)
		}
		return f.Close()
	}
	if err := std.WriteJSON(f); err != nil {
		return fmt.Errorf("obs: json snapshot %s: %w", path, err)
	}
	return f.Close()
}
