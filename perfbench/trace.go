package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/hog"
	"repro/internal/imgproc"
)

// span is one traced interval around calls into a layer. Calls > 1
// marks an aggregate of per-window or per-tick calls: Start is the
// first call's start and DurUS the summed busy time of all of them.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Calls   int     `json:"calls"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced replays share the code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, request int, start time.Time, dur time.Duration, calls int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartUS: float64(start.Sub(t.epoch)) / 1e3, DurUS: float64(dur) / 1e3, Calls: calls,
	})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent, request int) (int, time.Time) {
	now := time.Now()
	return t.add(name, parent, request, now, 0, 1), now
}

func (t *tracer) close(id int, start time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].DurUS = float64(time.Since(start)) / 1e3
}

// writeFile writes the spans with the host fingerprint as JSON.
func (t *tracer) writeFile(dir string, fp fingerprint) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", fp.Workload, fp.Seed))
	data, err := json.Marshal(struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Spans       []span      `json:"spans"`
	}{fp, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stageTimes is one replayed frame's time and work per layer.
type stageTimes struct {
	pyramid, grid, desc, score, nms time.Duration
	levels, cells, windows          int
	candidates, kept, descErrors    int
}

func (s *stageTimes) sum() time.Duration { return s.pyramid + s.grid + s.desc + s.score + s.nms }

func (s *stageTimes) addFrame(o stageTimes) {
	s.pyramid += o.pyramid
	s.grid += o.grid
	s.desc += o.desc
	s.score += o.score
	s.nms += o.nms
	s.levels += o.levels
	s.cells += o.cells
	s.windows += o.windows
	s.candidates += o.candidates
	s.kept += o.kept
	s.descErrors += o.descErrors
}

// replayDetect is Detect at one worker rebuilt from public calls —
// imgproc.Pyramid, the extractor's GridInto per level, DescriptorInto
// and the scorer's Score per window, then detect.NMSInto — timing each
// call. Per-window calls are aggregated into one span per level and
// call kind. The result must be bit-identical to det.Detect(img).
func replayDetect(tr *tracer, request int, det *detect.Detector, img *imgproc.Image) ([]detect.Detection, stageTimes) {
	var st stageTimes
	cfg := det.Config
	winW := cfg.WindowCellsX * cfg.CellSize
	winH := cfg.WindowCellsY * cfg.CellSize
	root, rootStart := tr.open(fmt.Sprintf("frame[%d]", request), 0, request)

	t0 := time.Now()
	levels := imgproc.Pyramid(img, cfg.ScaleFactor, winW, winH, cfg.MaxLevels)
	st.pyramid = time.Since(t0)
	st.levels = len(levels)
	tr.add("imgproc.Pyramid", root, request, t0, st.pyramid, 1)

	var g hog.Grid
	var desc []float64
	var raw []detect.Detection
	for li, level := range levels {
		lvl, lvlStart := tr.open(fmt.Sprintf("level[%d]", li), root, request)
		scale := math.Pow(cfg.ScaleFactor, float64(li))
		t0 := time.Now()
		det.Extractor.GridInto(&g, level)
		gridDur := time.Since(t0)
		st.grid += gridDur
		st.cells += g.CellsX * g.CellsY
		tr.add("GridInto", lvl, request, t0, gridDur, 1)
		if g.CellsY < cfg.WindowCellsY || g.CellsX < cfg.WindowCellsX {
			tr.close(lvl, lvlStart)
			continue
		}
		var descDur, scoreDur time.Duration
		var descStart, scoreStart time.Time
		calls := 0
		for gy := 0; gy+cfg.WindowCellsY <= g.CellsY; gy += cfg.StrideCells {
			for gx := 0; gx+cfg.WindowCellsX <= g.CellsX; gx += cfg.StrideCells {
				calls++
				a := time.Now()
				d, err := det.Extractor.DescriptorInto(desc[:0], &g, gx, gy)
				b := time.Now()
				descDur += b.Sub(a)
				if calls == 1 {
					descStart, scoreStart = a, b
				}
				if err != nil {
					st.descErrors++
					continue
				}
				desc = d
				s := det.Scorer.Score(desc)
				scoreDur += time.Since(b)
				if s < cfg.Threshold {
					continue
				}
				raw = append(raw, detect.Detection{
					Box: dataset.Box{
						X: int(float64(gx*cfg.CellSize) * scale),
						Y: int(float64(gy*cfg.CellSize) * scale),
						W: int(float64(winW) * scale),
						H: int(float64(winH) * scale),
					},
					Score: s,
				})
			}
		}
		st.windows += calls
		st.desc += descDur
		st.score += scoreDur
		tr.add("DescriptorInto", lvl, request, descStart, descDur, calls)
		tr.add("Score", lvl, request, scoreStart, scoreDur, calls)
		tr.close(lvl, lvlStart)
	}
	t0 = time.Now()
	kept := detect.NMSInto(nil, raw, cfg.NMSEpsilon)
	st.nms = time.Since(t0)
	tr.add("detect.NMSInto", root, request, t0, st.nms, 1)
	tr.close(root, rootStart)
	st.candidates = len(raw)
	st.kept = len(kept)
	return kept, st
}

// replayStats replays each image through replayDetect and through the
// untraced Detect of its detector dets[i] at one worker, alternating
// the two, and derives the per-layer metrics of the scan. grid[i] names
// the metric that receives the image's GridInto time, averaged over the
// images that name it. It returns the number of images whose replay
// differs from Detect and the summed untraced Detect time.
func replayStats(tr *tracer, imgs []*imgproc.Image, dets []*detect.Detector, grid []string, layers map[string]float64) (int, time.Duration) {
	var total stageTimes
	var untraced time.Duration
	gridMS := map[string][]float64{}
	mismatches := 0
	for i, img := range imgs {
		t0 := time.Now()
		want := dets[i].Detect(img)
		untraced += time.Since(t0)
		got, st := replayDetect(tr, i, dets[i], img)
		if !sameDetections(got, want) || st.descErrors > 0 {
			mismatches++
		}
		total.addFrame(st)
		gridMS[grid[i]] = append(gridMS[grid[i]], ms(st.grid))
	}
	n := float64(len(imgs))
	layers["imgproc.pyramid_ms"] = ms(total.pyramid) / n
	layers["imgproc.levels"] = float64(total.levels) / n
	layers["extract.cells"] = float64(total.cells) / n
	layers["detect.descriptor_ms"] = ms(total.desc) / n
	layers["detect.windows"] = float64(total.windows) / n
	layers["svm.score_ms"] = ms(total.score) / n
	layers["svm.score_ns_per_window"] = float64(total.score) / float64(total.windows)
	layers["detect.nms_ms"] = ms(total.nms) / n
	layers["detect.candidate_ratio"] = float64(total.candidates) / float64(total.windows)
	layers["detect.nms_keep_ratio"] = float64(total.kept) / float64(total.candidates)
	layers["detect.unattributed_ms"] = ms(untraced-total.sum()) / n
	layers["detect.coverage"] = float64(total.sum()) / float64(untraced)
	for _, name := range grid {
		layers[name] = mean(gridMS[name])
	}
	return mismatches, untraced
}
