// Package percival is the public API of the PERCIVAL reproduction: a
// browser-embedded, deep-learning-powered perceptual ad blocker (Din, Tigas,
// King, Livshits — "PERCIVAL: Making In-Browser Perceptual Ad Blocking
// Practical with Deep Learning").
//
// The package bundles the internal substrates behind a small surface:
//
//	clf, arch, err := percival.QuickTrain(percival.QuickTrainOptions{})
//	verdict := clf.IsAd(bitmap)               // classify one decoded frame
//	b, err := percival.AttachToBrowser(...)   // render with in-path blocking
//
// Trained models round-trip through SaveModel/LoadModel in the compact PCVL
// binary format (optionally fp16-compressed, the paper's <2 MB deployment
// form).
package percival

import (
	"fmt"
	"io"
	"math/rand"

	"percival/internal/browser"
	"percival/internal/core"
	"percival/internal/dataset"
	"percival/internal/easylist"
	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/webgen"
)

// Classifier is the PERCIVAL frame-classification service. It implements the
// rendering pipeline's FrameInspector hook and is safe for concurrent use by
// parallel raster workers.
type Classifier = core.Percival

// Options configures a Classifier (decision threshold, minimum frame edge,
// the INT8 engine and its calibration). A Classifier inspects synchronously
// and memoizes nothing; rendering first and blocking memoized ads on later
// sightings is a browser on a serve.Server (browser.Config.RenderFirst).
type Options = core.Options

// Arch is a network architecture configuration.
type Arch = squeezenet.Config

// PaperArch returns the paper-scale architecture: 224×224×4 input, six fire
// modules, <2 MB of weights.
func PaperArch() Arch { return squeezenet.PaperConfig() }

// SmallArch returns a reduced-resolution architecture with the same topology
// for CPU-budget training and experimentation.
func SmallArch(res int) Arch { return squeezenet.SmallConfig(res) }

// New wraps a trained network in a Classifier.
func New(net *nn.Sequential, arch Arch, opts Options) (*Classifier, error) {
	return core.New(net, arch, opts)
}

// QuickTrainOptions parameterizes QuickTrain. Zero values select sensible
// reduced-scale defaults.
type QuickTrainOptions struct {
	// Res is the input resolution (default 32; 224 = paper scale).
	Res int
	// Samples is the synthetic crawl size (default 700).
	Samples int
	// Epochs is the training budget (default 8).
	Epochs int
	// Seed drives data generation and initialization (default 1).
	Seed int64
	// Log receives per-epoch training lines when non-nil.
	Log io.Writer
	// Threshold configures the resulting classifier.
	Threshold float64
}

// QuickTrain synthesizes a crawl-distribution dataset, trains the PERCIVAL
// fork on it with the paper's optimizer family, and returns a ready
// classifier plus the architecture used. This is the programmatic
// equivalent of cmd/percival-train.
func QuickTrain(o QuickTrainOptions) (*Classifier, Arch, error) {
	net, arch, err := TrainNetwork(o)
	if err != nil {
		return nil, arch, err
	}
	clf, err := core.New(net, arch, Options{Threshold: o.Threshold})
	if err != nil {
		return nil, arch, err
	}
	return clf, arch, nil
}

// TrainNetwork is QuickTrain without the service wrapper: it returns the raw
// trained network, e.g. for serialization with SaveModel.
func TrainNetwork(o QuickTrainOptions) (*nn.Sequential, Arch, error) {
	if o.Res == 0 {
		o.Res = 32
	}
	if o.Samples == 0 {
		o.Samples = 700
	}
	if o.Epochs == 0 {
		o.Epochs = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	var arch Arch
	if o.Res >= 224 {
		arch = squeezenet.PaperConfig()
	} else {
		arch = squeezenet.SmallConfig(o.Res)
	}
	ds := dataset.Generate(o.Seed, synth.CrawlStyle(), o.Samples)
	ds.Dedup(2)
	ds.Balance(rand.New(rand.NewSource(o.Seed + 1)))
	cfg := dataset.FastTraining(arch, o.Epochs)
	cfg.Seed = o.Seed
	cfg.Log = o.Log
	net, err := dataset.Train(cfg, ds)
	if err != nil {
		return nil, arch, fmt.Errorf("percival: training: %w", err)
	}
	return net, arch, nil
}

// SaveModel writes a trained network to path in the PCVL format; compressed
// selects fp16 quantization (half the footprint, the paper's "<2 MB" form).
func SaveModel(path string, net *nn.Sequential, compressed bool) error {
	return nn.SaveFile(path, net, compressed)
}

// LoadModel reads weights from path into a freshly built network of the
// given architecture and wraps it in a Classifier.
func LoadModel(path string, arch Arch, opts Options) (*Classifier, error) {
	net, err := squeezenet.Build(arch)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadFile(path, net); err != nil {
		return nil, fmt.Errorf("percival: load model: %w", err)
	}
	return core.New(net, arch, opts)
}

// BrowserOptions configures AttachToBrowser.
type BrowserOptions struct {
	// Corpus is the synthetic web to browse.
	Corpus *webgen.Corpus
	// Shields enables Brave-style filter-list blocking using FilterList.
	Shields bool
	// FilterList is the EasyList text used when Shields is set; empty uses
	// the corpus's synthetic list.
	FilterList string
	// RasterWorkers sizes the raster pool (default 4).
	RasterWorkers int
}

// AttachToBrowser builds a browser simulator with the classifier installed
// at the decode/raster choke point — the paper's deployment (§3).
// A nil classifier renders the baseline configuration.
func AttachToBrowser(clf *Classifier, o BrowserOptions) (*browser.Browser, error) {
	if o.Corpus == nil {
		return nil, fmt.Errorf("percival: browser needs a corpus")
	}
	profile := browser.Chromium()
	if o.Shields {
		text := o.FilterList
		if text == "" {
			text = o.Corpus.SyntheticEasyList()
		}
		list, errs := easylist.Parse(text)
		if len(errs) > 0 {
			return nil, fmt.Errorf("percival: filter list: %v", errs[0])
		}
		profile = browser.Brave(list)
	}
	cfg := browser.Config{
		Profile:       profile,
		Corpus:        o.Corpus,
		RasterWorkers: o.RasterWorkers,
	}
	if clf != nil {
		cfg.Inspector = clf
	}
	return browser.New(cfg)
}

// NewCorpus generates a deterministic synthetic web of nSites ranked sites
// (see internal/webgen for the page model).
func NewCorpus(seed int64, nSites int) *webgen.Corpus {
	return webgen.NewCorpus(seed, nSites)
}
