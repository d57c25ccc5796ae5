// Command pcnn-sim runs TrueNorth model files on the simulator,
// mirroring the Corelet ecosystem's "model files runnable on both the
// TrueNorth hardware and a validated simulator" (Sec. 2.2).
//
// Usage:
//
//	pcnn-sim -model napprox.json -ticks 200 -spikes spikes.txt
//	pcnn-sim -export-napprox napprox.json     # write the NApprox corelet
//	pcnn-sim -demo                            # build, save, reload, run
//
// The spike file holds one "tick pin" pair per line; output spike
// counts per pin are printed at the end.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/imgproc"
	"repro/internal/napprox"
	"repro/internal/obs"
	"repro/internal/truenorth"
)

func main() {
	modelPath := flag.String("model", "", "model file to run")
	spikesPath := flag.String("spikes", "", "input spike schedule: lines of 'tick pin'")
	ticks := flag.Int("ticks", 100, "ticks to simulate")
	seed := flag.Int64("seed", 1, "stochastic threshold seed")
	shards := flag.Int("shards", 1, "shard the core graph across this many worker goroutines (bit-identical to -shards 1)")
	export := flag.String("export-napprox", "", "write the NApprox cell corelet as a model file and exit")
	demo := flag.Bool("demo", false, "build the NApprox corelet, save, reload and run a ramp cell")
	var tele obs.CLI
	tele.Register(flag.CommandLine)
	flag.Parse()
	tele.MustStart()
	defer tele.MustFinish()

	switch {
	case *export != "":
		if err := exportNApprox(*export); err != nil {
			fail(err)
		}
	case *demo:
		sp := obs.StartSpan("pcnn-sim.demo")
		err := runDemo(*shards)
		sp.End()
		if err != nil {
			_ = tele.Finish()
			fail(err)
		}
	case *modelPath != "":
		sp := obs.StartSpan("pcnn-sim.run")
		err := runModel(*modelPath, *spikesPath, *ticks, *seed, *shards)
		sp.End()
		if err != nil {
			_ = tele.Finish()
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func exportNApprox(path string) error {
	mod, err := napprox.BuildCellModule(napprox.TrueNorthConfig())
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := mod.Model.Save(f); err != nil {
		return err
	}
	fmt.Printf("NApprox cell corelet written to %s (%d cores, %d input pins, %d output pins)\n",
		path, mod.Model.NumCores(), mod.Model.NumInputs(), mod.Model.NumOutputs())
	return nil
}

func runModel(modelPath, spikesPath string, ticks int, seed int64, shards int) error {
	f, err := os.Open(modelPath)
	if err != nil {
		return err
	}
	model, err := truenorth.LoadModel(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("loaded model: %d cores, %d inputs, %d outputs (%d chips)\n",
		model.NumCores(), model.NumInputs(), model.NumOutputs(), model.Chips())

	schedule := map[int][]int{}
	if spikesPath != "" {
		sf, err := os.Open(spikesPath)
		if err != nil {
			return err
		}
		defer sf.Close()
		sc := bufio.NewScanner(sf)
		line := 0
		for sc.Scan() {
			line++
			fields := strings.Fields(sc.Text())
			if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
				continue
			}
			if len(fields) != 2 {
				return fmt.Errorf("%s:%d: want 'tick pin'", spikesPath, line)
			}
			tk, err1 := strconv.Atoi(fields[0])
			pin, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("%s:%d: bad integers", spikesPath, line)
			}
			schedule[tk] = append(schedule[tk], pin)
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}

	sim, err := truenorth.NewSimulator(model, seed, truenorth.WithShards(shards))
	if err != nil {
		return err
	}
	defer sim.Close()
	if sim.Shards() > 1 {
		p := sim.Partition()
		fmt.Printf("sharded: %d shards, %d cross-shard route edges\n",
			sim.Shards(), p.CrossEdges)
	}
	counts, err := sim.Run(ticks, func(t int) []int { return schedule[t] })
	if err != nil {
		return err
	}
	fmt.Printf("after %d ticks:\n", ticks)
	for pin, n := range counts {
		if n > 0 {
			fmt.Printf("  output pin %d: %d spikes\n", pin, n)
		}
	}
	e := truenorth.CollectEnergy(sim)
	fmt.Printf("activity: %d synaptic events, %d neuron fires, %d routed spikes (~%.2e J dynamic)\n",
		e.SynapticEvents, e.NeuronFires, e.SpikesRouted, e.ActiveEnergyJoules())
	return nil
}

func runDemo(shards int) error {
	cfg := napprox.TrueNorthConfig()
	mod, err := napprox.BuildCellModule(cfg)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp("", "napprox-*.json")
	if err != nil {
		return err
	}
	path := tmp.Name()
	defer os.Remove(path)
	if err := mod.Model.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	tmp.Close()
	fmt.Printf("corelet saved to %s\n", path)

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	model, err := truenorth.LoadModel(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("reloaded: %d cores\n", model.NumCores())

	// Run a horizontal ramp cell through the reloaded model.
	sim, err := truenorth.NewSimulator(model, 1, truenorth.WithShards(shards))
	if err != nil {
		return err
	}
	defer sim.Close()
	cell := imgproc.New(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			cell.Set(x, y, float64(x)*0.08)
		}
	}
	// Drive the reloaded model directly (pins are positional).
	trains := make([][]bool, 100)
	for i, v := range cell.Pix {
		trains[i] = truenorth.RateEncode(v, mod.Window)
	}
	counts, err := sim.Run(mod.Window+mod.DrainTicks, func(t int) []int {
		if t >= mod.Window {
			return nil
		}
		var pins []int
		for i, tr := range trains {
			if tr[t] {
				pins = append(pins, i)
			}
		}
		return pins
	})
	if err != nil {
		return err
	}
	fmt.Println("ramp-cell histogram from the reloaded corelet:")
	for bin, n := range counts {
		fmt.Printf("  bin %2d (%3d deg): %d votes\n", bin, bin*20, n)
	}
	return nil
}
