package truenorth

// Power constants from the paper (Sec. 2.2): a TrueNorth chip of 4096
// cores consumes 66 mW at 0.8 V, i.e. about 16 uW per core. The
// paper's Table 2 derives system power from chip counts, which
// internal/power charges as whole chips; the per-core share prices a
// design that occupies part of a chip.

// WattsPerChip is the measured power of one fully active TrueNorth
// chip (66 mW for 4096 cores at 0.8 V).
const WattsPerChip = 0.066

// WattsPerCore is the per-core share of chip power (~16.1 uW).
const WattsPerCore = WattsPerChip / ChipCores

// EnergyStats summarizes activity-based energy from a simulation run,
// for analyses beyond the paper's static chip-count model.
type EnergyStats struct {
	Ticks          uint64
	SynapticEvents uint64
	NeuronFires    uint64
	SpikesRouted   uint64
}

// CollectEnergy gathers activity counters from a simulator and its
// model's cores.
func CollectEnergy(s *Simulator) EnergyStats {
	st := EnergyStats{Ticks: s.Tick(), SpikesRouted: s.SpikesRouted()}
	m := s.Model()
	for i := 0; i < m.NumCores(); i++ {
		st.SynapticEvents += m.Core(i).SynapticEvents()
		st.NeuronFires += m.Core(i).FireEvents()
	}
	return st
}

// ActiveEnergyJoules estimates dynamic energy using published
// TrueNorth figures: ~26 pJ per synaptic event (Merolla et al. 2014
// report 26 pJ/synaptic event at 0.775 V) plus router energy per spike
// hop, here folded into a single per-routed-spike constant.
func (e EnergyStats) ActiveEnergyJoules() float64 {
	const synapticEventJ = 26e-12
	const routedSpikeJ = 2e-12
	return float64(e.SynapticEvents)*synapticEventJ + float64(e.SpikesRouted)*routedSpikeJ
}
