package hog

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/imgproc"
)

// HoG is built on gradients, so adding a constant brightness offset to
// every pixel must leave the descriptor unchanged — the property that
// makes gradient features robust to illumination, and the reason the
// parrot training data varies its "ratio of 1's and 0's" (Sec. 3.2).
func TestDescriptorBrightnessInvariance(t *testing.T) {
	e, err := NewExtractor(Reference())
	if err != nil {
		t.Fatal(err)
	}
	base := imgproc.New(64, 128)
	for i := range base.Pix {
		base.Pix[i] = 0.2 + 0.4*float64(i%37)/37
	}
	d0, err := descriptor(e, base)
	if err != nil {
		t.Fatal(err)
	}
	shifted := base.Clone()
	for i := range shifted.Pix {
		shifted.Pix[i] += 0.15
	}
	d1, err := descriptor(e, shifted)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d0 {
		if math.Abs(d0[i]-d1[i]) > 1e-9 {
			t.Fatalf("descriptor %d changed under brightness offset: %v vs %v",
				i, d0[i], d1[i])
		}
	}
}

// Mirroring an image horizontally mirrors the descriptor's block
// layout and reflects orientations; total histogram mass is conserved.
func TestDescriptorMassUnderMirror(t *testing.T) {
	cfg := Reference()
	cfg.Norm = NormNone
	e, err := NewExtractor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := imgproc.New(64, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 64; x++ {
			img.Set(x, y, 0.5+0.4*math.Sin(float64(x)*0.37+float64(y)*0.11))
		}
	}
	mirror := imgproc.New(64, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 64; x++ {
			mirror.Set(x, y, img.At(63-x, y))
		}
	}
	d0, err := descriptor(e, img)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := descriptor(e, mirror)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 float64
	for i := range d0 {
		m0 += d0[i]
		m1 += d1[i]
	}
	// Border effects at the mirrored seam allow a small tolerance.
	if math.Abs(m0-m1) > 0.02*m0 {
		t.Errorf("mirror changed histogram mass: %v vs %v", m0, m1)
	}
}

// Scaling all pixel values by a positive constant scales magnitudes,
// so L2-normalized block descriptors are invariant.
func TestDescriptorContrastInvarianceWithL2(t *testing.T) {
	e, err := NewExtractor(Reference())
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	f := func(seed uint8) bool {
		img := imgproc.New(64, 128)
		s := uint64(seed) + 11
		for i := range img.Pix {
			s = s*6364136223846793005 + 1442695040888963407
			img.Pix[i] = float64(s>>40%128) / 255
		}
		d0, err := descriptor(e, img)
		if err != nil {
			return false
		}
		scaled := img.Clone()
		for i := range scaled.Pix {
			scaled.Pix[i] *= 1.7
		}
		d1, err := descriptor(e, scaled)
		if err != nil {
			return false
		}
		for i := range d0 {
			if math.Abs(d0[i]-d1[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// The FPGA fixed-point model must also be brightness-invariant up to
// quantization of the offset itself.
func TestFPGABrightnessNearInvariance(t *testing.T) {
	e, err := NewFPGAExtractor(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	img := imgproc.New(64, 128)
	for i := range img.Pix {
		img.Pix[i] = 0.1 + 0.5*float64(i%53)/53
	}
	d0, err := descriptor(e, img)
	if err != nil {
		t.Fatal(err)
	}
	shifted := img.Clone()
	// An offset exactly representable in Q8.8 keeps gradients
	// bit-identical.
	for i := range shifted.Pix {
		shifted.Pix[i] += 0.25
	}
	d1, err := descriptor(e, shifted)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d0 {
		if math.Abs(d0[i]-d1[i]) > 1e-9 {
			t.Fatalf("fixed-point descriptor %d changed: %v vs %v", i, d0[i], d1[i])
		}
	}
}
