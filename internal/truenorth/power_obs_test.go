package truenorth

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// TestEnergyConsistencyWithObsMetrics verifies that the two
// observation paths agree: the spike/synapse/fire counts published to
// the obs registry must equal what CollectEnergy reports for the same
// run, and the exported energy gauge must equal ActiveEnergyJoules
// recomputed from the exported counters.
func TestEnergyConsistencyWithObsMetrics(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	defer func() {
		if !prev {
			obs.Disable()
		}
	}()
	baseline := EnergyStats{
		Ticks:          obs.CounterM("truenorth.ticks").Value(),
		SynapticEvents: obs.CounterM("truenorth.synaptic_events").Value(),
		NeuronFires:    obs.CounterM("truenorth.neuron_fires").Value(),
		SpikesRouted:   obs.CounterM("truenorth.spikes_routed").Value(),
	}

	m := buildRelay(t)
	sim, err := NewSimulator(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(16, func(tk int) []int {
		if tk%3 == 0 {
			return []int{0}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	direct := CollectEnergy(sim)
	if direct.SpikesRouted == 0 || direct.SynapticEvents == 0 {
		t.Fatal("run produced no activity; test is vacuous")
	}
	published := EnergyStats{
		Ticks:          obs.CounterM("truenorth.ticks").Value() - baseline.Ticks,
		SynapticEvents: obs.CounterM("truenorth.synaptic_events").Value() - baseline.SynapticEvents,
		NeuronFires:    obs.CounterM("truenorth.neuron_fires").Value() - baseline.NeuronFires,
		SpikesRouted:   obs.CounterM("truenorth.spikes_routed").Value() - baseline.SpikesRouted,
	}
	if published != direct {
		t.Errorf("obs counters %+v disagree with CollectEnergy %+v", published, direct)
	}

	// The exported gauge holds the energy of the registry's cumulative
	// totals; recomputing from those totals must match exactly.
	totals := EnergyStats{
		Ticks:          obs.CounterM("truenorth.ticks").Value(),
		SynapticEvents: obs.CounterM("truenorth.synaptic_events").Value(),
		NeuronFires:    obs.CounterM("truenorth.neuron_fires").Value(),
		SpikesRouted:   obs.CounterM("truenorth.spikes_routed").Value(),
	}
	gauge := obs.GaugeM("truenorth.active_energy_joules").Value()
	if want := totals.ActiveEnergyJoules(); math.Abs(gauge-want) > 1e-18 {
		t.Errorf("energy gauge = %v, want %v from exported counters", gauge, want)
	}
	if direct.ActiveEnergyJoules() <= 0 {
		t.Error("direct energy should be positive")
	}
}

// TestActivityHistogramsCountEveryTick pins the simulator's published
// activity histograms against its own tallies, as deltas across one
// Run of more ticks than a sampled histogram would keep, at one and at
// three shards: truenorth.active_cores_per_tick gains one observation
// per tick summing to the run's scheduled cores (read off a one-shard
// twin's worklists, tick by tick), and truenorth.run_spikes_routed's
// sum grows by the run's SpikesRouted. Ticks stepped before a Reset
// are dropped unpublished.
func TestActivityHistogramsCountEveryTick(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	defer func() {
		if !prev {
			obs.Disable()
		}
	}()
	const ticks = 5000
	// A relay chain under a sparse input schedule: how many cores are
	// active varies from tick to tick.
	build := func() *Model { return chainModel(t, 16) }
	in := func(m *Model) func(int) []int { return sparseSchedule(m.NumInputs(), 43) }

	mTwin := build()
	twin, err := NewSimulator(mTwin, 5)
	if err != nil {
		t.Fatal(err)
	}
	inTwin := in(mTwin)
	var wantActive uint64
	for tk := 0; tk < ticks; tk++ {
		if err := twin.InjectInputs(inTwin(tk)); err != nil {
			t.Fatal(err)
		}
		twin.Step()
		wantActive += uint64(len(twin.shards.shards[0].work))
	}
	if wantActive == 0 || wantActive == ticks*uint64(mTwin.NumCores()) {
		t.Fatalf("%d core-ticks active of %d; the test needs a varying count", wantActive, ticks*mTwin.NumCores())
	}

	active := obs.BucketHistogramM("truenorth.active_cores_per_tick", obs.SpikeBuckets)
	routed := obs.BucketHistogramM("truenorth.run_spikes_routed", obs.CountBuckets)
	for _, nsh := range []int{1, 3} {
		m := build()
		sim, err := NewSimulator(m, 5, WithShards(nsh))
		if err != nil {
			t.Fatal(err)
		}
		if sim.Shards() != nsh {
			t.Fatalf("simulator runs %d shards, want %d", sim.Shards(), nsh)
		}
		for tk := 0; tk < 7; tk++ {
			sim.Step()
		}
		sim.Reset()
		count0, sum0, routed0 := active.Count(), active.Sum(), routed.Sum()
		if _, err := sim.Run(ticks, in(m)); err != nil {
			t.Fatal(err)
		}
		if got := active.Count() - count0; got != ticks {
			t.Errorf("shards=%d: active_cores_per_tick gained %d observations, want %d", nsh, got, ticks)
		}
		if got := active.Sum() - sum0; got != float64(wantActive) {
			t.Errorf("shards=%d: active_cores_per_tick sum grew by %v, want %d", nsh, got, wantActive)
		}
		if got, want := routed.Sum()-routed0, float64(sim.SpikesRouted()); got != want || want == 0 {
			t.Errorf("shards=%d: run_spikes_routed sum grew by %v, want SpikesRouted %v (> 0)", nsh, got, want)
		}
		sim.Close()
	}
}

// TestCoreFiresPerRun pins truenorth.core_fires to the run it
// describes: each of three 20-tick Runs of a 4-core relay chain, with
// no Reset in between, grows the histogram by one observation per
// core and its sum by exactly that Run's truenorth.neuron_fires delta.
// A Run after Reset does the same.
func TestCoreFiresPerRun(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	defer func() {
		if !prev {
			obs.Disable()
		}
	}()
	m := chainModel(t, 4)
	sim, err := NewSimulator(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	fires := obs.BucketHistogramM("truenorth.core_fires", obs.CountBuckets)
	neuron := obs.CounterM("truenorth.neuron_fires")
	every := func(int) []int { return []int{0} }
	for run := 0; run < 4; run++ {
		if run == 3 {
			sim.Reset()
		}
		count0, sum0, fired0 := fires.Count(), fires.Sum(), neuron.Value()
		if _, err := sim.Run(20, every); err != nil {
			t.Fatal(err)
		}
		fired := neuron.Value() - fired0
		if fired == 0 {
			t.Fatalf("run %d fired no neuron", run)
		}
		if got := fires.Count() - count0; got != uint64(m.NumCores()) {
			t.Errorf("run %d: core_fires gained %d observations, want %d", run, got, m.NumCores())
		}
		if got := fires.Sum() - sum0; got != float64(fired) {
			t.Errorf("run %d: core_fires sum grew by %v, neuron_fires by %d", run, got, fired)
		}
	}
}
