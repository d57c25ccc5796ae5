package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/napprox"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/truenorth"
)

// simSeed keys the simulator's noise streams.
const simSeed = 1

// tnCell streams distinct 10x10 cells through the NApprox corelet on
// the default simulator: oriented and noise cells drawn as in the
// repository's hardware/software validation experiment. Noise cells
// spike more and take longer, so the two kinds form two modes of cell
// time; they are mixed two oriented to one noise rather than one to
// one, so the median falls inside a mode instead of in the gap.
type tnCell struct {
	sz    sizes
	rng   *rand.Rand
	mod   *napprox.CellModule
	sim   *truenorth.Simulator
	sw    *napprox.Extractor // software VoteRace model of the corelet
	cells []*imgproc.Image
	hists [][]float64 // timed-phase output of the first checkCells cells
}

func buildTNCell(seed int64, sz sizes, layers map[string]float64) (bench, error) {
	b := &tnCell{sz: sz, rng: rand.New(rand.NewSource(seed))}
	t0 := time.Now()
	for i := 0; i < sz.minCells; i++ {
		b.cells = append(b.cells, newCell(b.rng, i))
	}
	layers["setup.dataset_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	mod, err := napprox.BuildCellModule(napprox.TrueNorthConfig())
	if err != nil {
		return nil, err
	}
	sim, err := truenorth.NewSimulator(mod.Model, simSeed)
	if err != nil {
		return nil, err
	}
	swCfg := napprox.TrueNorthConfig()
	swCfg.Mode = napprox.VoteRace
	sw, err := napprox.New(swCfg, hog.NormNone)
	if err != nil {
		return nil, err
	}
	b.mod, b.sim, b.sw = mod, sim, sw
	layers["setup.corelet_s"] = time.Since(t0).Seconds()
	// A fixed warm-up cell keeps the set-up work the same for every seed.
	t0 = time.Now()
	if _, err := mod.Extract(sim, newCell(rand.New(rand.NewSource(trainSeed)), 0)); err != nil {
		return nil, err
	}
	layers["setup.warmup_s"] = time.Since(t0).Seconds()
	return b, nil
}

// newCell draws cell i: an oriented ramp, or uniform noise for every
// third cell.
func newCell(rng *rand.Rand, i int) *imgproc.Image {
	cell := imgproc.New(10, 10)
	for j := range cell.Pix {
		cell.Pix[j] = rng.Float64()
	}
	if i%3 != 2 {
		theta := rng.Float64() * 2 * math.Pi
		amp := 0.05 + rng.Float64()*0.2
		for y := 0; y < 10; y++ {
			for x := 0; x < 10; x++ {
				v := 0.5 + amp*(math.Cos(theta)*float64(x)-math.Sin(theta)*float64(y))/2
				cell.Set(x, y, v+(rng.Float64()-0.5)*0.1)
			}
		}
	}
	cell.Clamp01()
	return cell
}

func (b *tnCell) timed(d time.Duration, out *outcome) error {
	am := newAllocMeter()
	out.inputDigest = digestImages(b.cells...)
	start := time.Now()
	for i := 0; i < b.sz.minCells || time.Since(start) < d; i++ {
		if i == len(b.cells) {
			b.cells = append(b.cells, newCell(b.rng, i))
		}
		out.obsOnWhileTimed = out.obsOnWhileTimed || obs.Enabled()
		am.begin()
		t0 := time.Now()
		h, err := b.mod.Extract(b.sim, b.cells[i])
		el := time.Since(t0)
		am.end()
		out.attempted++
		if err != nil {
			out.failed++
		} else {
			out.busy += el
			out.lat = append(out.lat, ms(el))
		}
		if i < b.sz.checkCells {
			b.hists = append(b.hists, h)
		}
	}
	out.allocBytes = am.total
	return nil
}

// cellReplay is the simulator work of one replayed cell.
type cellReplay struct {
	reset, encode, step time.Duration
	ticks               int
	spikes, synEvents   uint64
}

// replayCell runs one cell through Reset, RateEncode and one
// InjectInputs+Step per tick — the calls Extract makes — and returns
// the first nBins output counts.
func (b *tnCell) replayCell(tr *tracer, request int, cell *imgproc.Image) ([]float64, cellReplay, error) {
	var r cellReplay
	root, rootStart := tr.open(fmt.Sprintf("cell[%d]", request), 0, request)
	defer tr.close(root, rootStart)
	t0 := time.Now()
	b.sim.Reset()
	r.reset = time.Since(t0)
	tr.add("Simulator.Reset", root, request, t0, r.reset, 1)

	t0 = time.Now()
	trains := make([][]bool, len(cell.Pix))
	for i, v := range cell.Pix {
		trains[i] = truenorth.RateEncode(v, b.mod.Window)
	}
	r.encode = time.Since(t0)
	tr.add("RateEncode", root, request, t0, r.encode, len(cell.Pix))

	counts := make([]float64, b.mod.NBins)
	var pins []int
	stepStart := time.Now()
	r.ticks = b.mod.Window + b.mod.DrainTicks
	for t := 0; t < r.ticks; t++ {
		pins = pins[:0]
		if t < b.mod.Window {
			for i, train := range trains {
				if train[t] {
					pins = append(pins, b.mod.InputPins[i])
				}
			}
		}
		t0 := time.Now()
		if err := b.sim.InjectInputs(pins); err != nil {
			return nil, r, err
		}
		fired := b.sim.Step()
		r.step += time.Since(t0)
		for p := 0; p < b.mod.NBins; p++ {
			if fired[p] {
				counts[p]++
			}
		}
	}
	tr.add("InjectInputs+Step", root, request, stepStart, r.step, r.ticks)
	e := truenorth.CollectEnergy(b.sim)
	r.spikes, r.synEvents = e.SpikesRouted, e.SynapticEvents
	return counts, r, nil
}

// check replays the first checkCells cells through the simulator's
// step API; the counts must equal Extract's. The same replay gives
// the simulator's per-layer metrics and the correlation with the
// software model.
func (b *tnCell) check(out *outcome) error {
	var total cellReplay
	var hw, ref []float64
	for i, want := range b.hists {
		got, r, err := b.replayCell(out.spans, i, b.cells[i])
		if err != nil {
			return err
		}
		for k := range want {
			if got[k] != want[k] {
				out.failed++
				break
			}
		}
		total.reset += r.reset
		total.encode += r.encode
		total.step += r.step
		total.ticks += r.ticks
		total.spikes += r.spikes
		total.synEvents += r.synEvents
		sw, err := b.sw.CellHistogram(b.cells[i])
		if err != nil {
			return err
		}
		hw = append(hw, got...)
		ref = append(ref, sw...)
	}
	n := float64(len(b.hists))
	out.layers["truenorth.reset_us"] = float64(total.reset) / 1e3 / n
	out.layers["truenorth.encode_us"] = float64(total.encode) / 1e3 / n
	out.layers["truenorth.step_us"] = float64(total.step) / 1e3 / float64(total.ticks)
	out.layers["truenorth.ticks_per_s"] = float64(total.ticks) / total.step.Seconds()
	out.layers["truenorth.spikes_per_cell"] = float64(total.spikes) / n
	out.layers["truenorth.synaptic_events_per_cell"] = float64(total.synEvents) / n
	r, err := stats.Pearson(hw, ref)
	if err != nil {
		return err
	}
	out.layers["truenorth.hw_sw_corr"] = r
	return nil
}

// traced has nothing to add: check already replayed the cells with
// spans.
func (b *tnCell) traced(out *outcome) error { return nil }
