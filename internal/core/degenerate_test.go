package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/detect"
	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/parrot"
)

// paradigmExtractors builds one extractor per paradigm with a
// separate extraction stage. The parrot network is untrained: the
// extractor contract does not depend on its weights.
func paradigmExtractors(t *testing.T) map[string]Extractor {
	t.Helper()
	out := map[string]Extractor{}
	for name, mk := range map[string]struct {
		p    Paradigm
		norm hog.NormMode
	}{
		"fpga":       {ParadigmFPGA, hog.NormL2},
		"napprox-fp": {ParadigmNApproxFP, hog.NormL2},
		"napprox":    {ParadigmNApprox, hog.NormNone},
	} {
		e, err := NewExtractor(mk.p, mk.norm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = e
	}
	net, err := eedn.NewParrotNet(parrot.NBins, 64, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	pe, err := parrot.NewExtractor(net, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	out["parrot"] = WrapParrot(pe)
	return out
}

// sumScorer scores a descriptor by the sum of its components.
type sumScorer struct{}

func (sumScorer) Score(x []float64) float64 {
	var v float64
	for _, xi := range x {
		v += xi
	}
	return v
}

// TestDegenerateImages runs empty, tiny, constant and
// non-cell-multiple images through every stage of every paradigm:
// GridInto, DescriptorInto at (0, 0), Descriptor, Detect, DetectAll,
// and a Sequence whose frame size changes to and from 0x0. No call may
// panic; an image that holds no window yields an error or an empty
// result, and 65x131 (one window, partial cells dropped) yields a
// finite descriptor and the same detections on every detection path.
// It also pins the block-plane contract: DescriptorInto on a
// hand-filled grid, or on one after InvalidateBlocks, returns
// hog.ErrNoBlockPlane and leaves dst unchanged.
func TestDegenerateImages(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	sizes := [][2]int{{0, 0}, {1, 1}, {7, 7}, {8, 8}, {63, 127}, {65, 131}}
	fills := map[string]float64{"zero": 0, "one": 1, "grey": 0.5}
	empty := imgproc.New(0, 0)
	for name, e := range paradigmExtractors(t) {
		cfg := detect.DefaultConfig()
		cfg.Workers = 2
		det, err := detect.NewDetector(e, sumScorer{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, wh := range sizes {
			for fill, v := range fills {
				tc := fmt.Sprintf("%s %dx%d %s", name, wh[0], wh[1], fill)
				img := imgproc.New(wh[0], wh[1])
				img.Fill(v)
				fits := wh[0] >= 64 && wh[1] >= 128

				var g hog.Grid
				e.GridInto(&g, img)
				if g.CellsX != wh[0]/8 || g.CellsY != wh[1]/8 {
					t.Fatalf("%s: grid %dx%d cells", tc, g.CellsX, g.CellsY)
				}
				dst := make([]float64, 1, 4)
				d, err := e.DescriptorInto(dst, &g, 0, 0)
				switch {
				case !fits && err == nil:
					t.Fatalf("%s: DescriptorInto served a window the grid cannot hold", tc)
				case !fits && (len(d) != 1 || cap(d) != cap(dst)):
					t.Fatalf("%s: dst not returned unchanged on error", tc)
				case fits && err != nil:
					t.Fatalf("%s: DescriptorInto: %v", tc, err)
				}
				for _, x := range d {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("%s: non-finite descriptor component %v", tc, x)
					}
				}
				if _, err := Descriptor(e, img); err == nil {
					t.Fatalf("%s: Descriptor accepted a non-64x128 window", tc)
				}

				want := det.Detect(img)
				if (!fits && len(want) != 0) || len(want) > 1 {
					t.Fatalf("%s: Detect returned %d detections", tc, len(want))
				}
				if all := det.DetectAll([]*imgproc.Image{img, img}); !reflect.DeepEqual(all, [][]detect.Detection{want, want}) {
					t.Fatalf("%s: DetectAll differs from Detect", tc)
				}
				seq := det.NewSequence()
				for i, frame := range []*imgproc.Image{img, empty, img, img} {
					got := seq.Next(frame)
					if frame == empty && len(got) != 0 {
						t.Fatalf("%s: frame %d: %d detections on a 0x0 frame", tc, i, len(got))
					}
					if frame == img && !reflect.DeepEqual(append([]detect.Detection(nil), got...), want) {
						t.Fatalf("%s: frame %d: Sequence differs from Detect", tc, i)
					}
				}
			}
		}

		var g hog.Grid
		e.GridInto(&g, imgproc.New(64, 128))
		g.InvalidateBlocks()
		dst := make([]float64, 1, 4)
		if d, err := e.DescriptorInto(dst, &g, 0, 0); !errors.Is(err, hog.ErrNoBlockPlane) || len(d) != 1 || cap(d) != cap(dst) {
			t.Fatalf("%s: DescriptorInto after InvalidateBlocks: err %v, len %d", name, err, len(d))
		}
		var hand hog.Grid
		hand.Reset(g.CellsX, g.CellsY, g.Bins)
		for i := range hand.Data {
			hand.Data[i] = float64(i % 5)
		}
		if d, err := e.DescriptorInto(dst, &hand, 0, 0); !errors.Is(err, hog.ErrNoBlockPlane) || len(d) != 1 || cap(d) != cap(dst) {
			t.Fatalf("%s: DescriptorInto on a hand-filled grid: err %v, len %d", name, err, len(d))
		}
	}
}
