// Command pcnn-train co-trains a partitioned detection system — a
// feature extractor paradigm plus a classifier head — on the synthetic
// pedestrian substrate, and writes the SVM model (when applicable) as
// JSON.
//
// Usage:
//
//	pcnn-train -paradigm fpga|napprox-fp|napprox|parrot -head svm|eedn \
//	           [-pos N] [-neg N] [-out model.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/parrot"
	"repro/internal/svm"
	"repro/internal/viz"
)

// tele carries the -metrics/-metrics-addr/-trace-out telemetry flags.
var tele obs.CLI

// die reports err, flushes any requested telemetry output, and exits.
func die(v ...any) {
	fmt.Fprintln(os.Stderr, v...)
	_ = tele.Finish()
	os.Exit(1)
}

func main() {
	paradigm := flag.String("paradigm", "napprox", "feature paradigm: fpga, napprox-fp, napprox, parrot")
	head := flag.String("head", "svm", "classifier head: svm or eedn")
	nPos := flag.Int("pos", 150, "positive training windows")
	nNeg := flag.Int("neg", 300, "negative training windows")
	seed := flag.Int64("seed", 1, "data generation seed")
	out := flag.String("out", "", "write the trained SVM model JSON here")
	vizOut := flag.String("viz", "", "render the SVM weight glyphs to this PNG/PGM (svm head)")
	mining := flag.Int("mine", 1, "hard-negative mining rounds (svm head)")
	tele.Register(flag.CommandLine)
	flag.Parse()
	tele.MustStart()
	root := obs.StartSpan("pcnn-train")

	norm := hog.NormL2
	if *head == "eedn" {
		norm = hog.NormNone // the paper elides block norm on TrueNorth
	}

	var (
		ext core.Extractor
		p   core.Paradigm
		err error
	)
	switch *paradigm {
	case "fpga":
		p = core.ParadigmFPGA
		ext, err = core.NewExtractor(p, hog.NormL2)
	case "napprox-fp":
		p = core.ParadigmNApproxFP
		ext, err = core.NewExtractor(p, norm)
	case "napprox":
		p = core.ParadigmNApprox
		ext, err = core.NewExtractor(p, norm)
	case "parrot":
		p = core.ParadigmParrot
		fmt.Println("training parrot extractor on auto-generated data...")
		opt := parrot.DefaultTrainOptions()
		var pe *parrot.Extractor
		var loss float64
		sp := root.StartChild("parrot.Train")
		pe, loss, err = parrot.Train(opt)
		sp.End()
		if err == nil {
			fmt.Printf("parrot training loss: %.4f\n", loss)
			if norm == hog.NormL2 {
				err = pe.SetNorm(hog.NormL2)
			}
			ext = core.WrapParrot(pe)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown paradigm %q\n", *paradigm)
		os.Exit(2)
	}
	if err != nil {
		die(err)
	}

	fmt.Printf("generating %d positives, %d negatives (seed %d)...\n", *nPos, *nNeg, *seed)
	ts := dataset.NewGenerator(*seed).TrainSet(*nPos, *nNeg)

	switch *head {
	case "svm":
		cfg := core.DefaultSVMTrainConfig()
		cfg.HardNegativeRounds = *mining
		sp := root.StartChild("core.TrainSVMPartition")
		part, err := core.TrainSVMPartition(p, ext, ts, cfg)
		sp.End()
		if err != nil {
			die(err)
		}
		model := part.Classifier.(*svm.Model)
		fmt.Printf("trained %s + SVM: %d weights, bias %.4f\n",
			p, len(model.W), model.B)
		reportAccuracy(ext, part)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				die(err)
			}
			defer f.Close()
			if err := model.Save(f); err != nil {
				die(err)
			}
			fmt.Printf("model written to %s\n", *out)
		}
		if *vizOut != "" {
			if err := writeWeightGlyphs(*vizOut, *paradigm, norm, model.W); err != nil {
				die(err)
			}
			fmt.Printf("weight glyphs written to %s\n", *vizOut)
		}
	case "eedn":
		cfg := core.DefaultEednTrainConfig()
		sp := root.StartChild("core.TrainEednPartition")
		part, err := core.TrainEednPartition(p, ext, ts, cfg)
		sp.End()
		if err != nil {
			die(err)
		}
		fmt.Printf("trained %s + Eedn head (~%d TrueNorth cores for the head)\n",
			p, part.ClassifierCores)
		reportAccuracy(ext, part)
	default:
		fmt.Fprintf(os.Stderr, "unknown head %q\n", *head)
		os.Exit(2)
	}
	root.End()
	tele.MustFinish()
}

// writeWeightGlyphs renders the SVM weight vector as HoG glyphs. The
// descriptor layout depends on the paradigm: the FPGA baseline uses 9
// unsigned bins, the others 18 signed bins.
func writeWeightGlyphs(path, paradigm string, norm hog.NormMode, w []float64) error {
	cfg := hog.NApproxStyle()
	if paradigm == "fpga" {
		cfg = hog.Reference()
	}
	cfg.Norm = norm
	img, err := viz.RenderHoGWeights(cfg, w, 12)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".png") {
		return imgproc.WritePNG(f, img)
	}
	return imgproc.WritePGM(f, img)
}

func reportAccuracy(ext core.Extractor, part *core.Partition) {
	val := dataset.NewGenerator(999).TrainSet(40, 40)
	correct, total := 0, 0
	for _, w := range val.Positives {
		d, err := core.Descriptor(ext, w)
		if err != nil {
			continue
		}
		total++
		if part.Classifier.Score(d) >= 0 {
			correct++
		}
	}
	for _, w := range val.Negatives {
		d, err := core.Descriptor(ext, w)
		if err != nil {
			continue
		}
		total++
		if part.Classifier.Score(d) < 0 {
			correct++
		}
	}
	if total > 0 {
		fmt.Printf("held-out window accuracy: %.3f (%d/%d)\n",
			float64(correct)/float64(total), correct, total)
	}
}
