// Package core is the reproduction's primary API: partitioned
// convolutional neural networks for co-training feature extraction and
// classification on a neuromorphic platform (the paper's title
// contribution).
//
// A pedestrian-detection system is a Partition: a feature-extraction
// stage and a classification stage, each independently mappable to the
// TrueNorth substrate. The package provides the paper's four
// extraction paradigms —
//
//	ParadigmFPGA     the 16-bit fixed-point baseline accelerator
//	ParadigmNApproxF NApprox HoG, full-precision software model
//	ParadigmNApprox  NApprox HoG, 64-spike TrueNorth quantization
//	ParadigmParrot   the trained 2-layer Eedn mimic
//	ParadigmAbsorbed feature extraction absorbed into a monolithic net
//
// — and two classifier families (linear SVM with hard-negative mining,
// Eedn trinary-weight networks), plus builders that co-train a
// partition end to end and wrap it as a sliding-window detector.
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/eedn"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/napprox"
	"repro/internal/parrot"
	"repro/internal/svm"
)

// Paradigm identifies a feature-extraction design approach.
type Paradigm int

const (
	// ParadigmFPGA is the fixed-point FPGA baseline HoG.
	ParadigmFPGA Paradigm = iota
	// ParadigmNApproxFP is the full-precision NApprox software model.
	ParadigmNApproxFP
	// ParadigmNApprox is the TrueNorth-quantized NApprox (64-spike).
	ParadigmNApprox
	// ParadigmParrot is the trained Eedn mimic of HoG.
	ParadigmParrot
	// ParadigmAbsorbed folds extraction into a monolithic classifier.
	ParadigmAbsorbed
)

// String implements fmt.Stringer.
func (p Paradigm) String() string {
	switch p {
	case ParadigmFPGA:
		return "fpga-hog"
	case ParadigmNApproxFP:
		return "napprox-fp"
	case ParadigmNApprox:
		return "napprox"
	case ParadigmParrot:
		return "parrot"
	case ParadigmAbsorbed:
		return "absorbed"
	default:
		return fmt.Sprintf("Paradigm(%d)", int(p))
	}
}

// Extractor is a partition's feature-extraction stage: the cell-grid
// and window-descriptor contract the detector scans with.
type Extractor = detect.Extractor

// Descriptor computes the descriptor of one 64x128 window: GridInto
// over the window, then DescriptorInto at cell (0, 0). Windows of any
// other size are rejected.
func Descriptor(e Extractor, window *imgproc.Image) ([]float64, error) {
	var s windowScratch
	return s.descriptor(e, window)
}

// windowScratch is the cell grid and descriptor buffer that loops over
// many windows reuse.
type windowScratch struct {
	grid hog.Grid
	buf  []float64
}

// descriptor is Descriptor over s's storage. The result is a copy
// sized to the descriptor, so callers may keep it.
func (s *windowScratch) descriptor(e Extractor, window *imgproc.Image) ([]float64, error) {
	if window.W != 64 || window.H != 128 {
		return nil, fmt.Errorf("core: window is %dx%d, want 64x128", window.W, window.H)
	}
	e.GridInto(&s.grid, window)
	d, err := e.DescriptorInto(s.buf[:0], &s.grid, 0, 0)
	if err != nil {
		return nil, err
	}
	s.buf = d
	return slices.Clone(d), nil
}

// NewExtractor constructs the feature extractor for a paradigm. norm
// selects block normalization: the paper uses L2 for the SVM
// experiments (Fig. 4) and none for the TrueNorth classifier
// experiments (Fig. 5, Sec. 5). The Parrot paradigm requires a trained
// network, supplied via NewParrotExtractor instead; Absorbed has no
// separate extractor by construction.
func NewExtractor(p Paradigm, norm hog.NormMode) (Extractor, error) {
	switch p {
	case ParadigmFPGA:
		if norm != hog.NormL2 {
			// The FPGA design always normalizes; reject silent drift.
			return nil, fmt.Errorf("core: FPGA baseline requires L2 block norm")
		}
		e, err := hog.NewFPGAExtractor(64, 128)
		if err != nil {
			return nil, err
		}
		return e, nil
	case ParadigmNApproxFP:
		e, err := napprox.New(napprox.FullPrecision(), norm)
		if err != nil {
			return nil, err
		}
		return e, nil
	case ParadigmNApprox:
		e, err := napprox.New(napprox.TrueNorthConfig(), norm)
		if err != nil {
			return nil, err
		}
		return e, nil
	case ParadigmParrot:
		return nil, fmt.Errorf("core: use NewParrotExtractor for the parrot paradigm")
	case ParadigmAbsorbed:
		return nil, fmt.Errorf("core: the absorbed paradigm has no separate extractor")
	default:
		return nil, fmt.Errorf("core: unknown paradigm %d", int(p))
	}
}

// NewParrotExtractor trains (or wraps) a parrot network at the given
// spike precision. Pass window 0 for full-precision evaluation.
func NewParrotExtractor(opt parrot.TrainOptions, window int, stochastic bool, rng *rand.Rand) (Extractor, error) {
	ex, _, err := parrot.Train(opt)
	if err != nil {
		return nil, err
	}
	wrapped, err := parrot.NewExtractor(ex.Net, window, stochastic, rng)
	if err != nil {
		return nil, err
	}
	return wrapped, nil
}

// WrapParrot returns an already-trained parrot extractor as an
// Extractor.
func WrapParrot(e *parrot.Extractor) Extractor {
	return e
}

// EednClassifier adapts an Eedn network with a single score output to
// the detect.Scorer interface. Inputs are rescaled by 1/Scale before
// the network (Eedn inputs live in [0, 1]; raw HoG count features live
// in [0, 64]). Net must be a stack of eedn.Dense layers, as every
// classifier preset is.
type EednClassifier struct {
	Net   *eedn.Network
	Scale float64
}

// scoreScratch is the working memory of one Score call: the kernel's
// planes and the rescaled input.
type scoreScratch struct {
	k  eedn.Scratch
	in []float64
}

var scorePool = sync.Pool{New: func() any { return new(scoreScratch) }}

// Score implements detect.Scorer. It runs one lane of the eedn
// inference kernel on pooled scratch, bit-identical to Net.Forward of
// the rescaled input, and allocates nothing once the scratch is warm;
// the hidden threshold layers take spikes, so they run as popcounts.
func (c *EednClassifier) Score(x []float64) float64 {
	s := scorePool.Get().(*scoreScratch)
	c.Net.Reserve(&s.k, 1)
	in := x
	if c.Scale != 0 && c.Scale != 1 {
		s.in = append(s.in[:0], x...)
		inv := 1 / c.Scale
		for i, v := range s.in {
			v *= inv
			if v > 1 {
				v = 1
			}
			s.in[i] = v
		}
		in = s.in
	}
	v := c.Net.Infer(&s.k, in)[0]
	scorePool.Put(s)
	return v
}

// Partition is a co-trained extraction/classification pair, the
// paper's partitioned CNN. Either stage may run on the neuromorphic
// substrate; Resources records the TrueNorth core budget.
type Partition struct {
	Paradigm   Paradigm
	Extractor  Extractor
	Classifier detect.Scorer
	// ExtractorCores and ClassifierCores are the TrueNorth core
	// budgets (0 for non-TrueNorth stages such as the FPGA baseline
	// or an SVM evaluated off-chip).
	ExtractorCores  int
	ClassifierCores int
}

// Cores returns the combined TrueNorth budget.
func (p *Partition) Cores() int { return p.ExtractorCores + p.ClassifierCores }

// Detector wraps the partition as a sliding-window detector with the
// paper's protocol parameters.
func (p *Partition) Detector(cfg detect.Config) (*detect.Detector, error) {
	return detect.NewDetector(p.Extractor, p.Classifier, cfg)
}

// DescriptorSet extracts descriptors for a set of 64x128 windows,
// reusing one cell grid across them.
func DescriptorSet(e Extractor, windows []*imgproc.Image) ([][]float64, error) {
	out := make([][]float64, 0, len(windows))
	var s windowScratch
	for i, w := range windows {
		d, err := s.descriptor(e, w)
		if err != nil {
			return nil, fmt.Errorf("core: window %d: %w", i, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// SVMTrainConfig controls classifier co-training with an SVM head.
type SVMTrainConfig struct {
	SVM svm.TrainOptions
	// HardNegativeRounds runs the paper's mining loop over negative
	// scenes (0 disables).
	HardNegativeRounds int
	// MiningScenes is the number of person-free images scanned per
	// round.
	MiningScenes int
	// MiningSeed drives the mining image generator.
	MiningSeed int64
	// Detect configures the mining scan.
	Detect detect.Config
}

// DefaultSVMTrainConfig mirrors the paper's methodology: hard-negative
// mining over negative training images.
func DefaultSVMTrainConfig() SVMTrainConfig {
	return SVMTrainConfig{
		SVM:                svm.DefaultTrainOptions(),
		HardNegativeRounds: 1,
		MiningScenes:       6,
		MiningSeed:         71,
		Detect:             detect.DefaultConfig(),
	}
}

// TrainSVMPartition co-trains a partition with the given extractor and
// a linear SVM head on a synthetic training set, including the
// hard-negative mining loop of Sec. 4.
func TrainSVMPartition(p Paradigm, e Extractor, ts dataset.TrainSet, cfg SVMTrainConfig) (*Partition, error) {
	pos, err := DescriptorSet(e, ts.Positives)
	if err != nil {
		return nil, err
	}
	neg, err := DescriptorSet(e, ts.Negatives)
	if err != nil {
		return nil, err
	}
	var miner svm.HardNegativeMiner
	if cfg.HardNegativeRounds > 0 && cfg.MiningScenes > 0 {
		miner = func(m *svm.Model) [][]float64 {
			gen := dataset.NewGenerator(cfg.MiningSeed)
			det, err := detect.NewDetector(e, m, cfg.Detect)
			if err != nil {
				return nil
			}
			var hard [][]float64
			var s windowScratch
			for i := 0; i < cfg.MiningScenes; i++ {
				img := gen.NegativeImage(256, 256)
				for _, d := range det.Detect(img) {
					// Any positive-scoring window on a person-free
					// image is a false positive; re-extract at the
					// window's location and scale.
					win := resampleWindow(img, d.Box)
					desc, err := s.descriptor(e, win)
					if err == nil {
						hard = append(hard, desc)
					}
					if len(hard) >= 200 {
						return hard
					}
				}
			}
			return hard
		}
	}
	model, _, err := svm.TrainHardNegative(pos, neg, miner, cfg.HardNegativeRounds, cfg.SVM)
	if err != nil {
		return nil, err
	}
	return &Partition{Paradigm: p, Extractor: e, Classifier: model}, nil
}

// augmentWindows returns the windows plus pyramid-statistics variants:
// a blurred copy and an upscale-then-crop copy of each, simulating the
// resampling a person undergoes before the detector's window lands on
// it.
func augmentWindows(ws []*imgproc.Image) []*imgproc.Image {
	out := make([]*imgproc.Image, 0, 3*len(ws))
	for _, w := range ws {
		out = append(out, w)
		blurred := w.Clone()
		imgproc.BoxBlur(blurred, 1)
		out = append(out, blurred)
		// Upscale 1.25x then crop the center back to 64x128: the
		// gradient magnitudes shrink the way a pyramid level's do.
		big := imgproc.Resize(w, 80, 160)
		out = append(out, big.SubImage(8, 16, 64, 128))
	}
	return out
}

// resampleWindow crops the detection box from img and resizes it to
// the canonical 64x128 window.
func resampleWindow(img *imgproc.Image, b dataset.Box) *imgproc.Image {
	crop := img.SubImage(b.X, b.Y, b.W, b.H)
	return imgproc.Resize(crop, 64, 128)
}

// EednTrainConfig controls classifier co-training with an Eedn head.
type EednTrainConfig struct {
	// Hidden layers and width of the classifier network.
	HiddenLayers int
	Width        int
	Train        eedn.TrainConfig
	// FeatureScale divides descriptors into [0, 1] network inputs.
	FeatureScale float64
	// AugmentScales adds, for each training window, descriptors of
	// blurred/rescaled copies that mimic what the detector sees on
	// pyramid levels; without it the threshold neurons overfit the
	// canonical crop statistics and generalize poorly to scenes.
	AugmentScales bool
	Seed          int64
}

// DefaultEednTrainConfig returns the compact classifier configuration
// the curve experiments use (see eedn.NewClassifier18 for the
// paper-scale 18-layer variant).
func DefaultEednTrainConfig() EednTrainConfig {
	tc := eedn.DefaultTrainConfig()
	tc.Loss = eedn.LossHinge
	tc.Epochs = 60
	tc.LR = 0.05
	// FeatureScale 32 (not the 64-count ceiling): typical cell votes
	// are small, so dividing by 32 and clamping keeps inputs in a
	// range where the threshold neurons discriminate without
	// saturating denser histograms.
	return EednTrainConfig{
		HiddenLayers: 2, Width: 256, Train: tc,
		FeatureScale: 32, AugmentScales: true, Seed: 5,
	}
}

// TrainEednPartition co-trains a partition with an Eedn classifier
// head on descriptors from the extractor — the configuration of the
// Fig. 5 experiments (extraction and classification both on
// TrueNorth).
func TrainEednPartition(p Paradigm, e Extractor, ts dataset.TrainSet, cfg EednTrainConfig) (*Partition, error) {
	posW, negW := ts.Positives, ts.Negatives
	if cfg.AugmentScales {
		posW = augmentWindows(posW)
		negW = augmentWindows(negW)
	}
	pos, err := DescriptorSet(e, posW)
	if err != nil {
		return nil, err
	}
	neg, err := DescriptorSet(e, negW)
	if err != nil {
		return nil, err
	}
	if len(pos) == 0 || len(neg) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net, err := eedn.NewClassifierNet(len(pos[0]), cfg.Width, cfg.HiddenLayers, rng)
	if err != nil {
		return nil, err
	}
	scale := cfg.FeatureScale
	if scale == 0 {
		scale = 1
	}
	var xs, ys [][]float64
	appendScaled := func(ds [][]float64, label float64) {
		for _, d := range ds {
			x := make([]float64, len(d))
			for i, v := range d {
				x[i] = v / scale
				if x[i] > 1 {
					x[i] = 1
				}
			}
			xs = append(xs, x)
			ys = append(ys, []float64{label})
		}
	}
	appendScaled(pos, 1)
	appendScaled(neg, -1)
	cfg.Train.Loss = eedn.LossHinge
	if _, err := net.Train(xs, ys, cfg.Train); err != nil {
		return nil, err
	}
	return &Partition{
		Paradigm:        p,
		Extractor:       e,
		Classifier:      &EednClassifier{Net: net, Scale: scale},
		ClassifierCores: eedn.CoreEstimate(net),
	}, nil
}

// AbsorbedResult reports the monolithic experiment of Sec. 5.1.
type AbsorbedResult struct {
	Net *eedn.Network
	// TrainLoss is the final training loss.
	TrainLoss float64
	// PositiveRate is the fraction of evaluation windows classified
	// positive; a value near 0 or 1 is the paper's "blind decision"
	// (all-positive or all-negative) symptom.
	PositiveRate float64
	// Accuracy is the labeled evaluation accuracy (0.5 = chance for a
	// balanced set).
	Accuracy float64
	// Blind reports whether the network makes blind decisions.
	Blind bool
}

// TrainAbsorbed trains the monolithic pixels-to-decision network on
// raw windows with the same training set used for the explicit
// partitions, and diagnoses convergence the way Sec. 5.1 does: "the
// resultant network always makes blind decisions (all-positive or
// all-negative)".
func TrainAbsorbed(ts dataset.TrainSet, eval []*imgproc.Image, evalLabels []bool, cfg eedn.TrainConfig, seed int64) (*AbsorbedResult, error) {
	if len(ts.Positives) == 0 || len(ts.Negatives) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	rng := rand.New(rand.NewSource(seed))
	net, err := eedn.NewMonolithicNet(rng)
	if err != nil {
		return nil, err
	}
	var xs, ys [][]float64
	for _, w := range ts.Positives {
		xs = append(xs, w.Pix)
		ys = append(ys, []float64{1})
	}
	for _, w := range ts.Negatives {
		xs = append(xs, w.Pix)
		ys = append(ys, []float64{-1})
	}
	cfg.Loss = eedn.LossHinge
	loss, err := net.Train(xs, ys, cfg)
	if err != nil {
		return nil, err
	}
	posN, correct := 0, 0
	for i, w := range eval {
		decided := net.Forward(w.Pix)[0] >= 0
		if decided {
			posN++
		}
		if i < len(evalLabels) && decided == evalLabels[i] {
			correct++
		}
	}
	rate, acc := 0.0, 0.0
	if len(eval) > 0 {
		rate = float64(posN) / float64(len(eval))
		acc = float64(correct) / float64(len(eval))
	}
	return &AbsorbedResult{
		Net:          net,
		TrainLoss:    loss,
		PositiveRate: rate,
		Accuracy:     acc,
		Blind:        rate <= 0.02 || rate >= 0.98,
	}, nil
}
