package hog

import (
	"math/rand"
	"testing"

	"repro/internal/fixed"
	"repro/internal/imgproc"
)

// TestFPGAGradTable checks every entry of the gradient table against
// the datapath expressions it replaces, unpacked the way fixedCellPass
// unpacks it. The table must span exactly the gradients of pixels in
// [0, 1], and its zero-gradient entry must add nothing, since the cell
// pass no longer skips that gradient.
func TestFPGAGradTable(t *testing.T) {
	q := fixed.Q16_8
	if d := q.FromFloat(1) - q.FromFloat(0); d != fpgaGradMax {
		t.Fatalf("pixels in [0, 1] span gradients up to %d, table up to %d", d, fpgaGradMax)
	}
	tab := fpgaGradTable()
	if len(tab) != fpgaGradSide*fpgaGradSide {
		t.Fatalf("table has %d entries, want %d", len(tab), fpgaGradSide*fpgaGradSide)
	}
	for ix := int64(-fpgaGradMax); ix <= fpgaGradMax; ix++ {
		for iy := int64(-fpgaGradMax); iy <= fpgaGradMax; iy++ {
			v := tab[(ix+fpgaGradMax)*fpgaGradSide+iy+fpgaGradMax]
			mag := q.Sqrt(q.Add(q.Mul(ix, ix), q.Mul(iy, iy)))
			bin := fixed.Atan2Bin(iy, ix, fpgaBins, false)
			if int64(v>>4) != mag || int(v&15) != bin {
				t.Fatalf("entry (%d, %d) = mag %d bin %d, datapath mag %d bin %d",
					ix, iy, v>>4, v&15, mag, bin)
			}
		}
	}
	if v := tab[fpgaGradMax*fpgaGradSide+fpgaGradMax]; v != 0 {
		t.Fatalf("zero-gradient entry = %#x, want 0", v)
	}
}

// FuzzFPGAGridInto holds GridInto to the frozen per-pixel datapath,
// fpgaGridIntoLegacy, bit for bit. The fuzzer picks the image size
// (0-200 pixels a side), a fill (pixel = fill + spread·u with u
// uniform in [0, 1)) and planted pixels: (two position bytes, value
// byte) triples whose value byte picks an fpgaEdgePixels entry, or the
// fill itself past the end of the table. One grid takes a warm-up
// image first, so the pass also runs over reused scratch.
func FuzzFPGAGridInto(f *testing.F) {
	f.Add(uint8(64), uint8(128), 0.0, 1.0, []byte{0x00, 0x00, 11, 0x80, 0x00, 9})
	e, err := NewFPGAExtractor(64, 128)
	if err != nil {
		f.Fatal(err)
	}
	warm := noiseImage(41, 37, 1)
	f.Fuzz(func(t *testing.T, w, h uint8, fill, spread float64, plant []byte) {
		img := imgproc.New(int(w)%201, int(h)%201)
		rng := rand.New(rand.NewSource(int64(w)<<8 | int64(h)))
		for i := range img.Pix {
			img.Pix[i] = fill + spread*rng.Float64()
		}
		for i := 0; i+2 < len(plant) && len(img.Pix) > 0; i += 3 {
			at := (int(plant[i])<<8 | int(plant[i+1])) * len(img.Pix) >> 16
			img.Pix[at] = pickValue(fpgaEdgePixels, plant[i+2], fill)
		}
		var got, want Grid
		e.GridInto(&got, warm)
		e.GridInto(&got, img)
		fpgaGridIntoLegacy(e, &want, img)
		sameGrid(t, "GridInto", &got, &want)
	})
}
