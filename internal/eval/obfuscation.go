package eval

import (
	"fmt"

	"percival/internal/browser"
	"percival/internal/core"
	"percival/internal/elementblocker"
	"percival/internal/imaging"
	"percival/internal/metrics"
	"percival/internal/webgen"
)

// ObfuscationReport quantifies the §2.2/§7 contrast: an element-based
// perceptual blocker (screenshot-of-rendered-box) versus PERCIVAL
// (decoded-frame hook) on pages whose ads hide behind CSS overlay masks.
type ObfuscationReport struct {
	// Clean is each blocker's ad recall on unmasked pages.
	CleanElement, CleanPercival float64
	// Attacked is the recall on overlay-attack pages.
	AttackedElement, AttackedPercival float64
	AdsClean, AdsAttacked             int
}

// Obfuscation runs both blockers over clean pages and overlay-attack pages.
func (h *Harness) Obfuscation() (*ObfuscationReport, error) {
	svc, err := h.Service()
	if err != nil {
		return nil, err
	}
	corpus := webgen.NewCorpus(h.Seed+160, 6)
	classify := func(b *imaging.Bitmap) bool { return svc.IsAd(b) }
	eb := &elementblocker.Blocker{Corpus: corpus, Classify: classify}

	rep := &ObfuscationReport{}

	// clean pages: landing pages of the normal corpus
	var cleanE, cleanP metrics.Confusion
	for _, site := range corpus.TopSites(6) {
		url := site.PageURLs[0]
		verdicts, err := eb.Scan(url)
		if err != nil {
			return nil, err
		}
		for _, v := range verdicts {
			cleanE.Add(v.Flagged, v.IsAdTruth)
		}
		if err := h.percivalConfusion(svc, corpus, url, &cleanP); err != nil {
			return nil, err
		}
	}

	// attack pages: every ad carries an overlay mask
	var atkE, atkP metrics.Confusion
	for i := 0; i < 6; i++ {
		page := corpus.GenerateAttackPage(i)
		verdicts, err := eb.Scan(page.URL)
		if err != nil {
			return nil, err
		}
		for _, v := range verdicts {
			atkE.Add(v.Flagged, v.IsAdTruth)
		}
		if err := h.percivalConfusion(svc, corpus, page.URL, &atkP); err != nil {
			return nil, err
		}
	}
	rep.CleanElement = cleanE.Recall()
	rep.CleanPercival = cleanP.Recall()
	rep.AttackedElement = atkE.Recall()
	rep.AttackedPercival = atkP.Recall()
	rep.AdsClean = cleanP.TP + cleanP.FN
	rep.AdsAttacked = atkP.TP + atkP.FN
	return rep, nil
}

// percivalConfusion renders the page with PERCIVAL installed and records
// per-ad blocking outcomes into c.
func (h *Harness) percivalConfusion(svc *core.Percival, corpus *webgen.Corpus, url string, c *metrics.Confusion) error {
	b, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus, Inspector: svc})
	if err != nil {
		return err
	}
	res, err := b.Render(url, 0)
	if err != nil {
		return fmt.Errorf("eval: render %s: %w", url, err)
	}
	for _, ri := range res.Images {
		c.Add(ri.BlockedByInspector, ri.Spec.IsAd)
	}
	return nil
}

// Table renders the obfuscation comparison.
func (r *ObfuscationReport) Table() string {
	t := metrics.Table{Header: []string{"Blocker", "Recall (clean pages)", "Recall (overlay attack)"}}
	t.AddRow("element-based (Ad Highlighter-style)", metrics.Pct(r.CleanElement), metrics.Pct(r.AttackedElement))
	t.AddRow("PERCIVAL (decoded-frame hook)", metrics.Pct(r.CleanPercival), metrics.Pct(r.AttackedPercival))
	return t.String() + fmt.Sprintf(
		"ads probed: %d clean, %d attacked. Overlay masks perturb the rendered\ncomposite that element-based blockers screenshot; PERCIVAL classifies the\nunmodified decoded buffers (§2.2, §7) and is unaffected.\n",
		r.AdsClean, r.AdsAttacked)
}
