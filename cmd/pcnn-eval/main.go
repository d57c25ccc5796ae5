// Command pcnn-eval regenerates the paper's tables and figures on the
// synthetic substrate.
//
// Usage:
//
//	pcnn-eval -exp table1|table2|fig4|fig5|fig6|absorbed|hwval|throughput|all [-full]
//
// Output is printed as aligned text tables; figures are printed as
// (FPPI, miss-rate) series suitable for plotting.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"text/tabwriter"

	"repro/internal/experiments"
	"repro/internal/obs"
)

var csvDir = flag.String("csv", "", "also write figure series as CSV files into this directory")

// tele carries the -metrics/-metrics-addr/-trace-out telemetry flags,
// so every figure regeneration can emit a machine-readable snapshot
// alongside its tables.
var tele obs.CLI

func main() {
	exp := flag.String("exp", "all", "experiment id: table1, table2, fig4, fig5, fig6, absorbed, hwval, throughput, all")
	full := flag.Bool("full", false, "use the paper-protocol-sized configuration (slow)")
	cells := flag.Int("hwcells", 200, "cells for the hardware/software validation")
	workers := flag.Int("workers", 0, "detection scan workers (0 or 1 sequential; clamped to GOMAXPROCS; output is worker-count invariant; with -metrics, per-image busy/wall fractions land in the detect.worker_utilization histogram)")
	tele.Register(flag.CommandLine)
	flag.Parse()
	tele.MustStart()

	cfg := experiments.Small()
	if *full {
		cfg = experiments.Full()
	}
	cfg.Detect.Workers = *workers

	run := func(name string, fn func() error) {
		switch *exp {
		case name, "all":
			fmt.Printf("==== %s ====\n", name)
			sp := obs.StartSpan("pcnn-eval." + name)
			err := fn()
			sp.End()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				_ = tele.Finish()
				os.Exit(1)
			}
			fmt.Println()
		}
	}

	run("table1", func() error { return printTable1() })
	run("table2", func() error { return printTable2() })
	run("hwval", func() error { return printHWVal(*cells) })
	run("throughput", func() error { return printThroughput() })
	run("fig6", func() error { return printFig6(cfg) })
	run("fig4", func() error { return printCurves("Fig. 4 (SVM classifiers)", experiments.Fig4, cfg) })
	run("fig5", func() error { return printCurves("Fig. 5 (Eedn classifiers)", experiments.Fig5, cfg) })
	run("absorbed", func() error { return printAbsorbed(cfg) })

	switch *exp {
	case "table1", "table2", "fig4", "fig5", "fig6", "absorbed", "hwval", "throughput", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	tele.MustFinish()
}

func printTable1() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Operation\tConventional\tTrueNorth\tdemo(conv)\tdemo(TN)")
	for _, r := range experiments.Table1() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.2f\t%.2f\n",
			r.Operation, r.Conventional, r.TrueNorth, r.DemoConventional, r.DemoTrueNorth)
	}
	return w.Flush()
}

func printTable2() error {
	rows, err := experiments.Table2()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Approach\tSignal resolution\tPower\tNote")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", r.Approach, r.Resolution, watts(r.Watts), r.Note)
	}
	return w.Flush()
}

func watts(v float64) string {
	if v < 1 {
		return fmt.Sprintf("%.0f mW", v*1000)
	}
	return fmt.Sprintf("%.2f W", v)
}

func printHWVal(cells int) error {
	res, err := experiments.HWValidation(cells, 42)
	if err != nil {
		return err
	}
	fmt.Printf("NApprox hardware corelet vs software model over %d cells:\n", res.Cells)
	fmt.Printf("  correlation: %.4f (paper: > 0.995)\n", res.Correlation)
	fmt.Printf("  module size: %d TrueNorth cores (paper: 26)\n", res.ModuleCores)
	return nil
}

func printThroughput() error {
	rows, err := experiments.Throughputs()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Design\tSpike window\tcells/s per module\tchips (full-HD@26fps)\tpower")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%s\n",
			r.Design, r.SpikeWindow, r.CellsPerSec, r.Chips, watts(r.Watts))
	}
	return w.Flush()
}

func printFig6(cfg experiments.Config) error {
	points, err := experiments.Fig6(cfg)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Spikes\tBits\tAccuracy\tMiss rate\tAccuracy (stochastic)")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\t%.3f\n",
			p.SpikeWindow, p.Bits, p.Accuracy, p.MissRate, p.StochasticAccuracy)
	}
	return w.Flush()
}

func printCurves(title string, fn func(experiments.Config) ([]experiments.CurveResult, error), cfg experiments.Config) error {
	fmt.Println(title)
	curves, err := fn(cfg)
	if err != nil {
		return err
	}
	for i, c := range curves {
		fmt.Printf("\n%s (log-average miss rate %.3f)\n", c.Name, c.LAMR)
		if c.DescriptorErrors > 0 {
			fmt.Printf("  WARNING: %d windows dropped (descriptor errors) — the scan silently shrank\n",
				c.DescriptorErrors)
		}
		fmt.Printf("  %-12s %s\n", "FPPI", "miss rate")
		for _, p := range c.Curve.Points {
			fmt.Printf("  %-12.4f %.4f\n", p.X, p.Y)
		}
		if *csvDir != "" {
			path := fmt.Sprintf("%s/%s_curve%d.csv", *csvDir, sanitize(title), i)
			if err := writeCurveCSV(path, c); err != nil {
				return err
			}
			fmt.Printf("  (written to %s)\n", path)
		}
	}
	return nil
}

// sanitize turns a title into a file-name fragment.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == '.':
			out = append(out, '_')
		}
	}
	return string(out)
}

func writeCurveCSV(path string, c experiments.CurveResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"fppi", "miss_rate", "name", "lamr"}); err != nil {
		return err
	}
	for _, p := range c.Curve.Points {
		if err := w.Write([]string{
			strconv.FormatFloat(p.X, 'g', -1, 64),
			strconv.FormatFloat(p.Y, 'g', -1, 64),
			c.Name,
			strconv.FormatFloat(c.LAMR, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func printAbsorbed(cfg experiments.Config) error {
	res, err := experiments.Absorbed(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Monolithic (absorbed) study — Sec. 5.1:\n")
	fmt.Printf("  training loss:        %.4f\n", res.TrainLoss)
	fmt.Printf("  positive decision rate: %.3f\n", res.PositiveRate)
	fmt.Printf("  evaluation accuracy:  %.3f\n", res.Accuracy)
	fmt.Printf("  blind decisions:      %v (paper: always all-positive or all-negative)\n", res.Blind)
	return nil
}
