package detect

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/napprox"
	"repro/internal/parrot"
)

// benchExtractors builds one extractor per paradigm so the kernel
// microbenchmarks cover every GridInto/DescriptorInto implementation:
// the float reference HoG, the fixed-point FPGA model, the
// spiking-quantized NApprox, and the parrot network (untrained — the
// kernel cost does not depend on the weights).
func benchExtractors(b *testing.B) map[string]Extractor {
	b.Helper()
	ref, err := hog.NewExtractor(hog.Reference())
	if err != nil {
		b.Fatal(err)
	}
	fpga, err := hog.NewFPGAExtractor(64, 128)
	if err != nil {
		b.Fatal(err)
	}
	na, err := napprox.New(napprox.TrueNorthConfig(), hog.NormL2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := eedn.NewParrotNet(parrot.NBins, 64, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	pr, err := parrot.NewExtractor(net, 0, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]Extractor{"hog": ref, "fpga": fpga, "napprox": na, "parrot": pr}
}

// BenchmarkGridInto measures the per-level cell-grid kernels of every
// extractor paradigm on a 160x160 image (the ScanInner level size).
// fpga-rails runs the FPGA model on the same image with half its
// pixels, in two-column stripes, pushed past the Q8.8 rail: every
// horizontal gradient then leaves the exact gradient table, so it
// prices the saturating fallback arithmetic.
func BenchmarkGridInto(b *testing.B) {
	img := dataset.NewGenerator(9).NegativeImage(160, 160)
	rails := img.Clone()
	for i := range rails.Pix {
		if i%img.W%4 >= 2 {
			rails.Pix[i] += 128
		}
	}
	exts := benchExtractors(b)
	for _, run := range []struct {
		name string
		ext  Extractor
		img  *imgproc.Image
	}{
		{"hog", exts["hog"], img},
		{"fpga", exts["fpga"], img},
		{"napprox", exts["napprox"], img},
		{"parrot", exts["parrot"], img},
		{"fpga-rails", exts["fpga"], rails},
	} {
		b.Run(run.name, func(b *testing.B) {
			var g hog.Grid
			run.ext.GridInto(&g, run.img) // warm the grid planes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.ext.GridInto(&g, run.img)
			}
		})
	}
}

// BenchmarkDescriptorInto measures the fused normalize+descriptor pass
// over a warm prepared grid, sweeping every window position of the
// level like the scan inner loop does.
func BenchmarkDescriptorInto(b *testing.B) {
	img := dataset.NewGenerator(9).NegativeImage(160, 160)
	for _, name := range []string{"hog", "fpga", "napprox", "parrot"} {
		ext := benchExtractors(b)[name]
		b.Run(name, func(b *testing.B) {
			var g hog.Grid
			ext.GridInto(&g, img)
			var cellsX, cellsY int
			switch e := ext.(type) {
			case *hog.Extractor:
				cellsX, cellsY = e.Config().CellsX(), e.Config().CellsY()
			case *hog.FPGAExtractor:
				cellsX, cellsY = e.Config().CellsX(), e.Config().CellsY()
			default:
				cellsX, cellsY = 8, 16 // 64x128 window in 8px cells
			}
			var desc []float64
			var err error
			desc, err = ext.DescriptorInto(desc[:0], &g, 0, 0) // warm
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for gy := 0; gy+cellsY <= g.CellsY; gy++ {
					for gx := 0; gx+cellsX <= g.CellsX; gx++ {
						desc, err = ext.DescriptorInto(desc[:0], &g, gx, gy)
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkLinearScores measures the block-plane SVM kernel over a warm
// prepared grid: every window of the level BenchmarkDescriptorInto
// sweeps, one LinearScoresInto call per window row, scores appended
// into a reused buffer. Each score equals svm.Model.Score of the
// window's descriptor, so against BenchmarkDescriptorInto (plus Score)
// this is the saving of the row scorer's kernel path.
func BenchmarkLinearScores(b *testing.B) {
	img := dataset.NewGenerator(9).NegativeImage(160, 160)
	for _, name := range []string{"hog", "fpga", "napprox", "parrot"} {
		ext := benchExtractors(b)[name]
		b.Run(name, func(b *testing.B) {
			var g hog.Grid
			ext.GridInto(&g, img)
			desc, err := ext.DescriptorInto(nil, &g, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			m := newSVMScorer(3, len(desc))
			const cellsX, cellsY = 8, 16 // 64x128 window in 8px cells
			n := windowsAcross(g.CellsX, cellsX, 1)
			scores, err := ext.LinearScoresInto(nil, &g, 0, 0, 1, n, m.W, m.B) // warm
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for gy := 0; gy+cellsY <= g.CellsY; gy++ {
					scores, err = ext.LinearScoresInto(scores[:0], &g, 0, gy, 1, n, m.W, m.B)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
