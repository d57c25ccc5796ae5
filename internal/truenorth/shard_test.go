package truenorth

import (
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// buildShardChain returns a chain model long enough that every shard
// count in the sweep owns real work, with an input pin driving core 0.
func buildShardChain(t testing.TB, cores int) *Model {
	return chainModel(t, cores)
}

func TestWithShardsClampAndAccessors(t *testing.T) {
	m := buildShardChain(t, 6)
	for _, tc := range []struct {
		req, want int
	}{
		{0, 1}, {1, 1}, {3, 3}, {6, 6}, {64, 6},
	} {
		sim, err := NewSimulator(m, 1, WithShards(tc.req))
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.Shards(); got != tc.want {
			t.Errorf("WithShards(%d) on 6 cores: Shards() = %d, want %d", tc.req, got, tc.want)
		}
		// Worker goroutines (and their channels) exist exactly when
		// there are two or more shards; one shard runs inline.
		ss := sim.shards
		if ss.workers != (tc.want > 1) || (ss.done != nil) != (tc.want > 1) || (ss.shards[0].start != nil) != (tc.want > 1) {
			t.Errorf("WithShards(%d): workers = %v (done %v, start %v), want %v",
				tc.req, ss.workers, ss.done != nil, ss.shards[0].start != nil, tc.want > 1)
		}
		p := sim.Partition()
		if len(p.Owner) != 6 || p.Shards() != tc.want {
			t.Errorf("WithShards(%d): partition has %d owners / %d shards", tc.req, len(p.Owner), p.Shards())
		}
		sim.Close()
		if ss.workers {
			t.Errorf("WithShards(%d): workers still marked running after Close", tc.req)
		}
	}
}

func TestCloseIdempotentAndUnsharded(t *testing.T) {
	m := buildShardChain(t, 4)
	sim, err := NewSimulator(m, 1, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	sim.Close()
	sim.Close() // second Close must be a no-op, not a double-close panic

	solo, err := NewSimulator(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	solo.Close() // unsharded Close is always safe
	solo.Step()  // and the simulator stays usable

	// Step after Close is defined: Close joins the workers and later
	// ticks run the four shards inline, giving what an unclosed
	// simulator gives. The steps run under a watchdog so a Step that
	// waits on joined workers fails the test instead of hanging it.
	const ticks = 96
	build := func() *Model { return randomModelN(t, rand.New(rand.NewSource(29)), 12) }
	mRef := build()
	in := sparseSchedule(mRef.NumInputs(), 29)
	want := simRun(t, mRef, 3, 2*ticks, in, WithShards(4))
	mClosed := build()
	closed, err := NewSimulator(mClosed, 3, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if closed.Shards() != 4 {
		t.Fatalf("model of %d cores gives %d shards, want 4", mClosed.NumCores(), closed.Shards())
	}
	tr := NewTrace()
	closed.SetTrace(tr)
	counts := make([]int, mClosed.NumOutputs())
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for tk := 0; tk < 2*ticks && runErr == nil; tk++ {
			if tk == ticks {
				closed.Close()
			}
			if runErr = closed.InjectInputs(in(tk)); runErr != nil {
				break
			}
			for p, fired := range closed.Step() {
				if fired {
					counts[p]++
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Step after Close on a 4-shard simulator still blocked after 5s")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(want.events) == 0 {
		t.Fatal("reference run fired nothing; test is vacuous")
	}
	sameRun(t, "closed after half the run", want, runResult{tr.Events, counts, CollectEnergy(closed), potentials(mClosed)})
}

// TestShardedStepSteadyStateAllocs locks in the zero-allocation
// steady-state tick for the sharded engine: after warmup (mailboxes,
// worklists and fired-buffers grown to their high-water marks), a
// Step with injection — barrier round-trip, inbox drain, cross-shard
// posts and all — must not touch the heap. The //pcnn:hotpath
// annotation on runShardTick has the hotalloc analyzer prove the same
// property statically.
func TestShardedStepSteadyStateAllocs(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		m := buildShardChain(t, 8)
		sim, err := NewSimulator(m, 1, WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		// Warm up: drive spikes through every chain link so each
		// shard's mailboxes and scratch buffers reach steady size.
		for i := 0; i < 2*(MaxDelay+1); i++ {
			_ = sim.InjectInput(0)
			sim.Step()
		}
		avg := testing.AllocsPerRun(100, func() {
			_ = sim.InjectInput(0)
			sim.Step()
		})
		if avg != 0 {
			t.Errorf("steady-state sharded Step allocates %.2f objects/op, want 0", avg)
		}
	})
}

// TestShardedRaceSmoke is the race-lane workhorse: a short sharded run
// with telemetry enabled (worker-side histogram observes, main-side
// publishes) over a model with heavy cross-shard traffic. Its value is
// under `go test -race`, where it sweeps the barrier, mailbox parity
// and owner-only-write protocols for data races; without -race it is a
// cheap extra differential check.
func TestShardedRaceSmoke(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	defer func() {
		if !prev {
			obs.Disable()
		}
	}()
	m := randomModelN(t, rand.New(rand.NewSource(3)), 12)
	mRef := randomModelN(t, rand.New(rand.NewSource(3)), 12)
	ticks := 200
	if testing.Short() {
		ticks = 48
	}
	sim, err := NewSimulator(m, 5, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	tr := NewTrace()
	sim.SetTrace(tr)
	counts, err := sim.Run(ticks, sparseSchedule(m.NumInputs(), 3))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSimulator(mRef, 5)
	if err != nil {
		t.Fatal(err)
	}
	trRef := NewTrace()
	ref.SetTrace(trRef)
	countsRef, err := ref.Run(ticks, sparseSchedule(mRef.NumInputs(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Events, trRef.Events) {
		t.Fatalf("sharded race-smoke run diverged: %d vs %d events", len(tr.Events), len(trRef.Events))
	}
	if !reflect.DeepEqual(counts, countsRef) {
		t.Fatalf("sharded race-smoke output counts diverged: %v vs %v", counts, countsRef)
	}
}

// TestShardedScrapeUnderLoad mirrors PR 5's scrape-under-load test for
// the sharded engine: Prometheus exposition of the default registry
// must be safe and non-blocking while shard workers are observing
// busy/barrier histograms and the main goroutine is publishing
// counters mid-run.
func TestShardedScrapeUnderLoad(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	defer func() {
		if !prev {
			obs.Disable()
		}
	}()
	m := buildShardChain(t, 12)
	sim, err := NewSimulator(m, 1, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 8; r++ {
			if _, err := sim.Run(64, func(tk int) []int {
				if tk%2 == 0 {
					return []int{0}
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := obs.Default().WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
}

// TestShardedMetricsDeterministicMerge pins satellite 5: the counters
// a sharded run publishes must equal the unsharded run's exactly —
// per-shard tallies merge on the main goroutine between barriers, so
// shard completion order can never leak into the published values —
// and repeated identical runs must publish identical deltas. Also
// checks the shard-only metrics: the cross-shard spike counter is
// delta-published (no double counting across publishes) and bounded
// by total routed spikes.
func TestShardedMetricsDeterministicMerge(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	defer func() {
		if !prev {
			obs.Disable()
		}
	}()
	snapshot := func() EnergyStats {
		return EnergyStats{
			Ticks:          obs.CounterM("truenorth.ticks").Value(),
			SynapticEvents: obs.CounterM("truenorth.synaptic_events").Value(),
			NeuronFires:    obs.CounterM("truenorth.neuron_fires").Value(),
			SpikesRouted:   obs.CounterM("truenorth.spikes_routed").Value(),
		}
	}
	delta := func(a, b EnergyStats) EnergyStats {
		return EnergyStats{
			Ticks:          b.Ticks - a.Ticks,
			SynapticEvents: b.SynapticEvents - a.SynapticEvents,
			NeuronFires:    b.NeuronFires - a.NeuronFires,
			SpikesRouted:   b.SpikesRouted - a.SpikesRouted,
		}
	}
	run := func(shards int) (EnergyStats, uint64, float64) {
		m := randomModelN(t, rand.New(rand.NewSource(17)), 12)
		opts := []Option{WithShards(shards)}
		sim, err := NewSimulator(m, 23, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		before := snapshot()
		crossBefore := obs.CounterM("truenorth.shard_spikes_cross").Value()
		// Two Run cycles with a mid-run PublishMetrics each: the
		// delta trackers must never double-count.
		in := sparseSchedule(m.NumInputs(), 17)
		if _, err := sim.Run(96, in); err != nil {
			t.Fatal(err)
		}
		sim.Reset()
		if _, err := sim.Run(96, in); err != nil {
			t.Fatal(err)
		}
		return delta(before, snapshot()),
			obs.CounterM("truenorth.shard_spikes_cross").Value() - crossBefore,
			obs.GaugeM("truenorth.shards").Value()
	}

	solo, soloCross, _ := run(1)
	if solo.SpikesRouted == 0 {
		t.Fatal("reference run routed no spikes; test is vacuous")
	}
	if soloCross != 0 {
		t.Fatalf("unsharded run published %d cross-shard spikes, want 0", soloCross)
	}
	sh1, cross1, g1 := run(8)
	sh2, cross2, g2 := run(8)
	if sh1 != solo {
		t.Errorf("sharded published counters %+v != unsharded %+v", sh1, solo)
	}
	if sh1 != sh2 || cross1 != cross2 {
		t.Errorf("repeated sharded runs published different values: %+v/%d vs %+v/%d",
			sh1, cross1, sh2, cross2)
	}
	if cross1 == 0 || cross1 > sh1.SpikesRouted {
		t.Errorf("cross-shard spikes = %d, want in (0, %d]", cross1, sh1.SpikesRouted)
	}
	if g1 != 8 || g2 != 8 {
		t.Errorf("truenorth.shards gauge = %v/%v, want 8", g1, g2)
	}
}

// TestShardedActiveCoreSampling pins that the per-tick active-core
// counts a sharded simulator observes (summed over shards after the
// barrier) are exactly the one-shard simulator's counts, tick for tick.
func TestShardedActiveCoreSampling(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable()
	defer func() {
		if !prev {
			obs.Disable()
		}
	}()
	const ticks = 200
	mA := randomModelN(t, rand.New(rand.NewSource(29)), 12)
	mB := randomModelN(t, rand.New(rand.NewSource(29)), 12)
	soloSim, err := NewSimulator(mA, 7)
	if err != nil {
		t.Fatal(err)
	}
	shardSim, err := NewSimulator(mB, 7, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer shardSim.Close()
	if shardSim.Shards() < 2 {
		t.Fatalf("%d-core model runs %d shard; the comparison needs two or more", mB.NumCores(), shardSim.Shards())
	}
	in := sparseSchedule(mA.NumInputs(), 29)
	for tk := 0; tk < ticks; tk++ {
		if err := soloSim.InjectInputs(in(tk)); err != nil {
			t.Fatal(err)
		}
		if err := shardSim.InjectInputs(in(tk)); err != nil {
			t.Fatal(err)
		}
		soloBefore, shardBefore := soloSim.active.Sum(), shardSim.active.Sum()
		soloSim.Step()
		shardSim.Step()
		solo, shard := soloSim.active.Sum()-soloBefore, shardSim.active.Sum()-shardBefore
		if solo != shard {
			t.Fatalf("tick %d: %v active cores unsharded, %v sharded", tk, solo, shard)
		}
	}
	if soloSim.active.Count() != ticks || shardSim.active.Count() != ticks {
		t.Fatalf("observed %d/%d ticks, want %d", soloSim.active.Count(), shardSim.active.Count(), ticks)
	}
	if soloSim.active.Sum() == 0 {
		t.Fatal("no core was active in any tick; the comparison is vacuous")
	}
}
