package eval

import (
	"fmt"
	"time"

	"percival/internal/core"
	"percival/internal/dataset"
	"percival/internal/imaging"
	"percival/internal/metrics"
	"percival/internal/synth"
)

// QuantReport compares the FP32 and INT8 inference engines side by side:
// accuracy on the synthetic eval set, top-1 agreement, model size, and
// per-frame latency.
type QuantReport struct {
	FP32, INT8     metrics.Confusion
	Agreement      float64 // FP32-vs-INT8 top-1 agreement on the eval set
	ParityGate     float64 // agreement measured by the core parity gate
	Active         bool    // whether the gate activated the INT8 engine
	FP32MS, INT8MS float64 // mean per-frame classification latency
	FP32MB, INT8MB float64
	SampleCount    int
}

// quantCalibFrames is how many synthetic frames feed calibration and the
// core parity gate.
const quantCalibFrames = 64

// Quant evaluates the INT8 quantized engine against FP32 on the synthetic
// eval distribution: both services share the same trained model; the
// quantized one calibrates and parity-gates on a held-out frame sample.
func (h *Harness) Quant() (*QuantReport, error) {
	net, err := h.Model()
	if err != nil {
		return nil, err
	}
	fp32, err := core.New(net, h.arch, core.Options{})
	if err != nil {
		return nil, err
	}
	g := synth.NewGenerator(h.Seed+160, synth.CrawlStyle())
	calib := make([]*imaging.Bitmap, quantCalibFrames)
	for i := range calib {
		calib[i], _ = g.Sample()
	}
	int8svc, err := core.New(net, h.arch, core.Options{Quantized: true, CalibFrames: calib})
	if err != nil {
		return nil, err
	}

	n := h.n(250)
	d := dataset.Generate(h.Seed+161, synth.CrawlStyle(), n*2)
	rep := &QuantReport{
		ParityGate:  int8svc.ParityAgreement(),
		Active:      int8svc.QuantizedActive(),
		FP32MB:      float64(fp32.ModelSizeBytes()) / (1 << 20),
		INT8MB:      float64(int8svc.QuantizedModelSizeBytes()) / (1 << 20),
		SampleCount: d.Len(),
	}
	agree := 0
	thr := fp32.Threshold()
	startFP := time.Now()
	fpScores := make([]float64, d.Len())
	for i := range d.Samples {
		fpScores[i] = fp32.Classify(d.Samples[i].Image)
	}
	rep.FP32MS = time.Since(startFP).Seconds() * 1000 / float64(d.Len())
	startQ := time.Now()
	for i := range d.Samples {
		q := int8svc.Classify(d.Samples[i].Image)
		isAd := d.Samples[i].Label == dataset.Ad
		rep.FP32.Add(fpScores[i] >= thr, isAd)
		rep.INT8.Add(q >= thr, isAd)
		if (fpScores[i] >= thr) == (q >= thr) {
			agree++
		}
	}
	rep.INT8MS = time.Since(startQ).Seconds() * 1000 / float64(d.Len())
	rep.Agreement = float64(agree) / float64(d.Len())
	h.logf("quant: parity gate %.3f (active=%v), eval agreement %.3f\n",
		rep.ParityGate, rep.Active, rep.Agreement)
	return rep, nil
}

// Table renders the FP32-vs-INT8 comparison.
func (r *QuantReport) Table() string {
	t := metrics.Table{Header: []string{"Engine", "Acc.", "Precision", "Recall", "F1", "Model (MB)", "ms/frame"}}
	t.AddRow("FP32", metrics.F3(r.FP32.Accuracy()), metrics.F3(r.FP32.Precision()),
		metrics.F3(r.FP32.Recall()), metrics.F3(r.FP32.F1()),
		fmt.Sprintf("%.2f", r.FP32MB), fmt.Sprintf("%.2f", r.FP32MS))
	t.AddRow("INT8", metrics.F3(r.INT8.Accuracy()), metrics.F3(r.INT8.Precision()),
		metrics.F3(r.INT8.Recall()), metrics.F3(r.INT8.F1()),
		fmt.Sprintf("%.2f", r.INT8MB), fmt.Sprintf("%.2f", r.INT8MS))
	return t.String() + fmt.Sprintf(
		"accuracy delta %+.4f; verdict agreement %.2f%% over %d samples; parity gate %.2f%% (int8 active: %v)\n",
		r.INT8.Accuracy()-r.FP32.Accuracy(), r.Agreement*100, r.SampleCount, r.ParityGate*100, r.Active)
}
