package hog

import (
	"math"
	"testing"

	"repro/internal/imgproc"
	"repro/internal/stats"
)

func spatialConfig() Config {
	c := Reference()
	c.SpatialInterp = true
	return c
}

func TestSpatialInterpValidation(t *testing.T) {
	c := spatialConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("spatial config invalid: %v", err)
	}
	c.Voting = VoteCount
	if err := c.Validate(); err == nil {
		t.Error("spatial + count voting should be rejected")
	}
}

func TestSpatialInterpConservesMass(t *testing.T) {
	// Total histogram mass over all cells must equal the plain
	// extractor's (bilinear weights sum to 1 except at image borders
	// where some weight falls outside; use interior-heavy content).
	plainCfg := Reference()
	plainCfg.Norm = NormNone
	spatCfg := spatialConfig()
	spatCfg.Norm = NormNone
	plain, err := NewExtractor(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	spat, err := NewExtractor(spatCfg)
	if err != nil {
		t.Fatal(err)
	}
	img := imgproc.New(64, 128)
	// Content concentrated away from borders.
	for y := 16; y < 112; y++ {
		for x := 16; x < 48; x++ {
			img.Set(x, y, 0.5+0.4*math.Sin(float64(x)*0.5)*math.Cos(float64(y)*0.3))
		}
	}
	mass := func(e *Extractor) float64 {
		var g Grid
		e.GridInto(&g, img)
		var s float64
		for _, v := range g.Data {
			s += v
		}
		return s
	}
	m0 := mass(plain)
	m1 := mass(spat)
	if m0 == 0 {
		t.Fatal("no gradient mass")
	}
	// Border leakage only at the image edge ring.
	if math.Abs(m0-m1) > 0.05*m0 {
		t.Errorf("mass not conserved: plain %v vs spatial %v", m0, m1)
	}
}

func TestSpatialInterpSmoothsCellTransitions(t *testing.T) {
	// A vertical edge exactly between two cell columns: with spatial
	// interpolation both adjacent cells receive energy; without, only
	// the cells containing the edge pixels do.
	spat, err := NewExtractor(func() Config {
		c := spatialConfig()
		c.Norm = NormNone
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	img := imgproc.New(64, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 64; x++ {
			if x >= 16 {
				img.Set(x, y, 0.9)
			} else {
				img.Set(x, y, 0.1)
			}
		}
	}
	var g Grid
	spat.GridInto(&g, img)
	// Edge gradients live at x=15..16 (cells 1 and 2). With the
	// bilinear split, cell 1 and cell 2 in each row share the energy.
	rowEnergy := func(cx int) float64 {
		var s float64
		for _, v := range g.Hist(cx, 8) {
			s += v
		}
		return s
	}
	if rowEnergy(1) == 0 || rowEnergy(2) == 0 {
		t.Errorf("edge energy not shared: cell1=%v cell2=%v", rowEnergy(1), rowEnergy(2))
	}
}

func TestSpatialInterpDescriptorQuality(t *testing.T) {
	// Descriptors with and without spatial interpolation must stay
	// strongly correlated — it is a smoothing, not a different feature.
	plain, err := NewExtractor(Reference())
	if err != nil {
		t.Fatal(err)
	}
	spat, err := NewExtractor(spatialConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := imgproc.New(64, 128)
	for i := range img.Pix {
		img.Pix[i] = 0.5 + 0.4*math.Sin(float64(i)*0.05)
	}
	d0, err := descriptor(plain, img)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := descriptor(spat, img)
	if err != nil {
		t.Fatal(err)
	}
	r, err := stats.Pearson(d0, d1)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.8 {
		t.Errorf("spatial interpolation correlation = %v, want > 0.8", r)
	}
}

func BenchmarkSpatialInterpDescriptor(b *testing.B) {
	e, _ := NewExtractor(spatialConfig())
	img := imgproc.New(64, 128)
	for i := range img.Pix {
		img.Pix[i] = float64(i%251) / 251
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = descriptor(e, img)
	}
}

func TestNormVariants(t *testing.T) {
	img := imgproc.New(64, 128)
	for i := range img.Pix {
		img.Pix[i] = 0.5 + 0.4*math.Sin(float64(i)*0.07)
	}
	blockLen := 4 * 9
	for _, norm := range []NormMode{NormL1, NormL1Sqrt, NormL2, NormL2Hys} {
		cfg := Reference()
		cfg.Norm = norm
		e, err := NewExtractor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := descriptor(e, img)
		if err != nil {
			t.Fatal(err)
		}
		block := d[:blockLen]
		switch norm {
		case NormL1, NormL1Sqrt:
			var s float64
			for _, v := range block {
				if norm == NormL1Sqrt {
					s += v * v // sqrt'd L1: squares sum to 1
				} else {
					s += math.Abs(v)
				}
			}
			if math.Abs(s-1) > 1e-9 {
				t.Errorf("%v block norm sum = %v, want 1", norm, s)
			}
		case NormL2, NormL2Hys:
			// L2Hys clips at 0.2 *before* the final renormalization, so
			// elements may exceed 0.2 afterwards; the invariant is the
			// unit L2 norm for both schemes.
			var s float64
			for _, v := range block {
				s += v * v
			}
			if math.Abs(math.Sqrt(s)-1) > 1e-9 {
				t.Errorf("%v block L2 = %v, want 1", norm, math.Sqrt(s))
			}
		}
	}
	if NormL1.String() != "l1" || NormL1Sqrt.String() != "l1-sqrt" || NormL2Hys.String() != "l2-hys" {
		t.Error("norm stringers")
	}
}

func TestApplyNormZeroVector(t *testing.T) {
	for _, norm := range []NormMode{NormL1, NormL1Sqrt, NormL2, NormL2Hys, NormNone} {
		v := make([]float64, 8)
		applyNorm(norm, v) // must not NaN or panic
		for _, x := range v {
			if x != 0 {
				t.Errorf("%v changed a zero vector", norm)
			}
		}
	}
}
