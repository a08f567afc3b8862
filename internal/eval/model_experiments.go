package eval

import (
	"fmt"
	"strings"

	"percival/internal/dataset"
	"percival/internal/gradcam"
	"percival/internal/imaging"
	"percival/internal/metrics"
	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/zoo"
)

// Fig3Report compares the original SqueezeNet, PERCIVAL's fork, and the
// heavyweight baselines by size (Fig. 3 and the §1/§4.2 size claims).
type Fig3Report struct {
	Models                []zoo.ModelInfo
	ForkSizeMB            float64
	ForkCompressedMB      float64
	OriginalSizeMB        float64
	CompressionVsSentinel float64
}

// Fig3 runs the architecture/size comparison.
func (h *Harness) Fig3() (*Fig3Report, error) {
	fork, err := squeezenet.Build(squeezenet.PaperConfig())
	if err != nil {
		return nil, err
	}
	orig := squeezenet.BuildOriginal(squeezenet.OriginalSqueezeNet())
	r := &Fig3Report{
		Models:                zoo.Catalog(),
		ForkSizeMB:            float64(nn.SizeBytes(fork)) / (1 << 20),
		ForkCompressedMB:      float64(nn.SizeBytes(fork)) / 2 / (1 << 20),
		OriginalSizeMB:        float64(nn.SizeBytes(orig)) / (1 << 20),
		CompressionVsSentinel: zoo.CompressionFactor("YOLOv2 (Sentinel)", true),
	}
	return r, nil
}

// Table renders the Fig. 3 comparison.
func (r *Fig3Report) Table() string {
	t := metrics.Table{Header: []string{"Model", "Params", "Size (MB)", "Mobile-deployable"}}
	for _, m := range r.Models {
		t.AddRow(m.Name, fmt.Sprintf("%d", m.Params), fmt.Sprintf("%.2f", m.SizeMB), fmt.Sprintf("%v", m.Deployable))
	}
	return t.String() + fmt.Sprintf(
		"fork %.2f MB (%.2f MB compressed) vs original %.2f MB; %.0fx smaller than Sentinel-class (paper: 74x)\n",
		r.ForkSizeMB, r.ForkCompressedMB, r.OriginalSizeMB, r.CompressionVsSentinel)
}

// Fig4Report carries the Grad-CAM salience outputs for one ad and one
// non-ad sample at two depths (the paper shows layers 5 and 9).
type Fig4Report struct {
	AdShallow, AdDeep       *gradcam.Heatmap
	NonAdDeep               *gradcam.Heatmap
	AdChoicesSalience       float64 // mean salience in the AdChoices corner
	BackgroundSalience      float64 // mean salience elsewhere on the ad
	ShallowLayer, DeepLayer int
}

// Fig4 computes salience maps on a banner ad (with its AdChoices marker in
// the top-right corner) and a content image.
func (h *Harness) Fig4() (*Fig4Report, error) {
	net, err := h.Model()
	if err != nil {
		return nil, err
	}
	// pick two conv/fire depths analogous to the paper's layer 5 / layer 9
	shallow, deep := 3, 6 // fire1, fire3 in the fork's layer list
	g := synth.NewGenerator(h.Seed+40, synth.CrawlStyle())
	var ad *imaging.Bitmap
	for i := 0; i < 50; i++ {
		cand := g.Ad()
		if cand.W >= cand.H { // prefer wide banner with corner marker
			ad = cand
			break
		}
	}
	if ad == nil {
		ad = g.Ad()
	}
	nonAd := g.NonAd()

	adX := imaging.PrepareInput(ad, h.Res)
	adShallow, err := gradcam.Compute(net, adX.Clone(), shallow, dataset.Ad)
	if err != nil {
		return nil, err
	}
	adDeep, err := gradcam.Compute(net, adX.Clone(), deep, dataset.Ad)
	if err != nil {
		return nil, err
	}
	nonX := imaging.PrepareInput(nonAd, h.Res)
	nonDeep, err := gradcam.Compute(net, nonX, deep, dataset.Ad)
	if err != nil {
		return nil, err
	}
	up := adDeep.Upsample(h.Res, h.Res)
	corner := up.MeanSalience(h.Res*3/4, 0, h.Res, h.Res/4)
	rest := up.MeanSalience(0, h.Res/4, h.Res, h.Res)
	return &Fig4Report{
		AdShallow: adShallow, AdDeep: adDeep, NonAdDeep: nonDeep,
		AdChoicesSalience: corner, BackgroundSalience: rest,
		ShallowLayer: shallow, DeepLayer: deep,
	}, nil
}

// Table renders the salience summary plus ASCII maps.
func (r *Fig4Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Grad-CAM (ad, layer %d):\n%s\n", r.DeepLayer, r.AdDeep.ASCII())
	fmt.Fprintf(&sb, "Grad-CAM (non-ad, layer %d):\n%s\n", r.DeepLayer, r.NonAdDeep.ASCII())
	fmt.Fprintf(&sb, "ad-corner salience %.3f vs elsewhere %.3f\n", r.AdChoicesSalience, r.BackgroundSalience)
	return sb.String()
}

// Fig8Report is the external-dataset validation (§5.1): accuracy, model
// size, per-image latency, precision, recall, F1 on the Hussain-style set.
type Fig8Report struct {
	Confusion   metrics.Confusion
	SizeMB      float64
	AvgTimeMS   float64
	SampleCount int
}

// Fig8 trains on the crawl distribution (the shared model) and tests on the
// shifted external distribution.
func (h *Harness) Fig8() (*Fig8Report, error) {
	svc, err := h.Service()
	if err != nil {
		return nil, err
	}
	n := h.n(502) // paper: 5,024 at 10x scale
	d := dataset.Generate(h.Seed+50, synth.ExternalStyle(), n*2)
	net, _ := h.Model()
	c := dataset.Evaluate(net, h.Res, 0.5, d)
	// measure per-frame latency through the service path
	g := synth.NewGenerator(h.Seed+51, synth.ExternalStyle())
	for i := 0; i < 20; i++ {
		img, _ := g.Sample()
		svc.Classify(img)
	}
	stats := svc.Stats()
	return &Fig8Report{
		Confusion:   c,
		SizeMB:      float64(svc.ModelSizeBytes()) / (1 << 20),
		AvgTimeMS:   stats.AvgClassifyMS,
		SampleCount: d.Len(),
	}, nil
}

// Table renders the Fig. 8 row.
func (r *Fig8Report) Table() string {
	t := metrics.Table{Header: []string{"Size (images)", "Acc.", "Size", "Avg. time", "Precision", "Recall", "F1"}}
	t.AddRow(
		fmt.Sprintf("%d", r.SampleCount),
		metrics.F3(r.Confusion.Accuracy()),
		fmt.Sprintf("%.2f MB", r.SizeMB),
		fmt.Sprintf("%.1f ms", r.AvgTimeMS),
		metrics.F3(r.Confusion.Precision()),
		metrics.F3(r.Confusion.Recall()),
		metrics.F3(r.Confusion.F1()),
	)
	return t.String()
}
