package eval

import (
	"fmt"
	"strings"

	"percival/internal/crawler"
	"percival/internal/dataset"
	"percival/internal/dom"
	"percival/internal/easylist"
	"percival/internal/imaging"
	"percival/internal/metrics"
	"percival/internal/synth"
	"percival/internal/webgen"
)

// Fig6Report measures how much of the synthetic news-site corpus EasyList
// covers (Fig. 6: CSS rules matched 20.2% of 5,000 elements, network rules
// 31.1% of 5,000 requests).
type Fig6Report struct {
	CSSElements int
	CSSMatched  int
	NetRequests int
	NetMatched  int
}

// Fig6 applies the synthetic EasyList's cosmetic rules to page containers
// and its network rules to image requests across the news-site corpus.
func (h *Harness) Fig6() (*Fig6Report, error) {
	corpus := webgen.NewCorpus(h.Seed+60, h.n(60))
	list, errs := easylist.Parse(corpus.SyntheticEasyList())
	if len(errs) > 0 {
		return nil, fmt.Errorf("eval: synthetic list: %v", errs)
	}
	r := &Fig6Report{}
	for _, site := range corpus.Sites {
		sel := list.HideSelectors(site.Domain)
		for _, u := range site.PageURLs {
			page, _ := corpus.Page(u)
			doc := parseDoc(page.HTML)
			for _, div := range doc.ByTag("div") {
				r.CSSElements++
				for _, s := range sel {
					if div.MatchesSelector(s) {
						r.CSSMatched++
						break
					}
				}
			}
			for _, spec := range page.Images {
				r.NetRequests++
				req := easylist.Request{
					URL: spec.URL, Domain: hostOf(spec.URL),
					PageDomain: site.Domain, Type: easylist.TypeImage,
				}
				if list.ShouldBlock(req) {
					r.NetMatched++
				}
			}
		}
	}
	return r, nil
}

// Table renders the Fig. 6 rows.
func (r *Fig6Report) Table() string {
	t := metrics.Table{Header: []string{"Dataset", "Size", "Matched rules"}}
	t.AddRow("CSS rules", fmt.Sprintf("%d", r.CSSElements), metrics.Pct(float64(r.CSSMatched)/float64(maxi(r.CSSElements, 1))))
	t.AddRow("Network", fmt.Sprintf("%d", r.NetRequests), metrics.Pct(float64(r.NetMatched)/float64(maxi(r.NetRequests, 1))))
	return t.String()
}

// Fig7Report measures how well PERCIVAL replicates EasyList labels on a
// traditional-crawl screenshot dataset (Fig. 7: acc 96.76%, precision
// 97.76%, recall 95.72% over 6,930 images).
type Fig7Report struct {
	Confusion     metrics.Confusion
	Images        int
	AdsIdentified int
}

// Fig7 crawls the corpus with the screenshot crawler (EasyList labels) and
// tests whether the model reproduces those labels. The paper's methodology
// includes a manual post-processing pass ("manually labelled them to
// identify the false positives"); we simulate it by dropping samples whose
// EasyList label contradicts generation-time ground truth — mostly
// first-party and unlisted-network ads that EasyList cannot see, which a
// human annotator would have relabelled.
func (h *Harness) Fig7() (*Fig7Report, error) {
	net, err := h.Model()
	if err != nil {
		return nil, err
	}
	corpus := webgen.NewCorpus(h.Seed+70, h.n(50))
	list, _ := easylist.Parse(corpus.SyntheticEasyList())
	tc := &crawler.Traditional{Corpus: corpus, List: list, ScreenshotDelayMS: 10_000}
	var pages []string
	for _, s := range corpus.Sites {
		pages = append(pages, s.PageURLs...)
	}
	ds, truth, _, err := tc.Crawl(pages)
	if err != nil {
		return nil, err
	}
	// manual-cleanup simulation: keep samples whose EasyList label agrees
	// with ground truth (mostly dropping first-party and unlisted-network
	// ads that EasyList mislabels as non-ads)
	cleaned := &dataset.Dataset{}
	adsIdentified := 0
	for i, s := range ds.Samples {
		if s.Label == truth[i] {
			cleaned.Samples = append(cleaned.Samples, s)
			if s.Label == dataset.Ad {
				adsIdentified++
			}
		}
	}
	c := dataset.Evaluate(net, h.Res, 0.5, cleaned)
	return &Fig7Report{Confusion: c, Images: cleaned.Len(), AdsIdentified: adsIdentified}, nil
}

// Table renders the Fig. 7 row.
func (r *Fig7Report) Table() string {
	t := metrics.Table{Header: []string{"Images", "Ads Identified", "Accuracy", "Precision", "Recall"}}
	t.AddRow(
		fmt.Sprintf("%d", r.Images),
		fmt.Sprintf("%d", r.AdsIdentified),
		metrics.Pct(r.Confusion.Accuracy()),
		metrics.Pct(r.Confusion.Precision()),
		metrics.Pct(r.Confusion.Recall()),
	)
	return t.String()
}

// LangResult is one Fig. 9 row.
type LangResult struct {
	Language      string
	ImagesCrawled int
	AdsIdentified int
	Confusion     metrics.Confusion
}

// Fig9Report is the language-agnostic evaluation (§5.5).
type Fig9Report struct{ Rows []LangResult }

// Fig9 evaluates the crawl-trained model on each regional distribution.
// Per-language set sizes mirror the paper's crawl proportions.
func (h *Harness) Fig9() (*Fig9Report, error) {
	net, err := h.Model()
	if err != nil {
		return nil, err
	}
	// paper set sizes /10: (crawled, ads)
	sizes := map[string][2]int{
		"arabic":  {500, 275},
		"spanish": {254, 31},
		"french":  {241, 37},
		"korean":  {430, 51},
		"chinese": {209, 53},
	}
	rep := &Fig9Report{}
	for _, lang := range synth.Languages() {
		style, _ := synth.LanguageStyle(lang)
		sz := sizes[lang]
		total, ads := h.n(sz[0]), h.n(sz[1])
		if ads >= total {
			ads = total / 2
		}
		d := dataset.GenerateUnbalanced(h.Seed+int64(len(lang))*977, style, ads, total-ads)
		c := dataset.Evaluate(net, h.Res, 0.5, d)
		rep.Rows = append(rep.Rows, LangResult{
			Language: lang, ImagesCrawled: total, AdsIdentified: ads, Confusion: c,
		})
	}
	return rep, nil
}

// Table renders the Fig. 9 table.
func (r *Fig9Report) Table() string {
	t := metrics.Table{Header: []string{"Language", "Images crawled", "Ads Identified", "Accuracy", "Precision", "Recall"}}
	for _, row := range r.Rows {
		t.AddRow(
			titleCase(row.Language),
			fmt.Sprintf("%d", row.ImagesCrawled),
			fmt.Sprintf("%d", row.AdsIdentified),
			metrics.Pct(row.Confusion.Accuracy()),
			metrics.F3(row.Confusion.Precision()),
			metrics.F3(row.Confusion.Recall()),
		)
	}
	return t.String()
}

// Fig10Report is the Facebook first-party evaluation (§5.3).
type Fig10Report struct {
	Sessions  int
	Confusion metrics.Confusion
}

// Fig10 browses simulated Facebook sessions (the paper browsed for 35 days)
// and classifies every feed unit's creative.
func (h *Harness) Fig10() (*Fig10Report, error) {
	svc, err := h.Service()
	if err != nil {
		return nil, err
	}
	corpus := webgen.NewCorpus(h.Seed+80, 2)
	sessions := h.n(35)
	var c metrics.Confusion
	for s := 1; s <= sessions; s++ {
		fs := corpus.GenerateFeedSession(s)
		for _, spec := range fs.Page.Images {
			frame := spec.Render(0)
			predictedAd := svc.IsAd(frame)
			c.Add(predictedAd, spec.IsAd)
		}
	}
	return &Fig10Report{Sessions: sessions, Confusion: c}, nil
}

// Table renders the Fig. 10 row.
func (r *Fig10Report) Table() string {
	c := r.Confusion
	t := metrics.Table{Header: []string{"Ads", "Non-ads", "Accuracy", "FP", "FN", "TP", "TN", "Precision", "Recall"}}
	t.AddRow(
		fmt.Sprintf("%d", c.TP+c.FN),
		fmt.Sprintf("%d", c.TN+c.FP),
		metrics.Pct(c.Accuracy()),
		fmt.Sprintf("%d", c.FP),
		fmt.Sprintf("%d", c.FN),
		fmt.Sprintf("%d", c.TP),
		fmt.Sprintf("%d", c.TN),
		metrics.F3(c.Precision()),
		metrics.F3(c.Recall()),
	)
	return t.String()
}

// QueryResult is one Fig. 13 row.
type QueryResult struct {
	Query    webgen.SearchQuery
	Blocked  int
	Rendered int
	FP, FN   int
}

// Fig13Report is the image-search probing experiment (§5.4).
type Fig13Report struct{ Rows []QueryResult }

// Fig13 classifies the top-100 image results for each Fig. 13 query.
func (h *Harness) Fig13() (*Fig13Report, error) {
	svc, err := h.Service()
	if err != nil {
		return nil, err
	}
	corpus := webgen.NewCorpus(h.Seed+90, 2)
	rep := &Fig13Report{}
	for _, q := range webgen.SearchQueries() {
		page := corpus.GenerateSearchResults(q, 100)
		row := QueryResult{Query: q}
		// Score the result page through the batched service path (which
		// amortizes pre-processing and keeps its arena warm), rendering one
		// chunk of creatives at a time so peak memory stays bounded.
		const renderChunk = 16
		for lo := 0; lo < len(page.Images); lo += renderChunk {
			hi := lo + renderChunk
			if hi > len(page.Images) {
				hi = len(page.Images)
			}
			frames := make([]*imaging.Bitmap, hi-lo)
			for i, spec := range page.Images[lo:hi] {
				frames[i] = spec.Render(0)
			}
			verdicts := svc.IsAdBatch(frames)
			for i, spec := range page.Images[lo:hi] {
				if verdicts[i] {
					row.Blocked++
					if !spec.IsAd {
						row.FP++
					}
				} else {
					row.Rendered++
					if spec.IsAd {
						row.FN++
					}
				}
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Table renders the Fig. 13 table ("-" for unlabeled queries, as in the
// paper).
func (r *Fig13Report) Table() string {
	t := metrics.Table{Header: []string{"Search query", "Images blocked", "Images rendered", "FP", "FN"}}
	for _, row := range r.Rows {
		fp, fn := "-", "-"
		if row.Query.Labeled {
			fp, fn = fmt.Sprintf("%d", row.FP), fmt.Sprintf("%d", row.FN)
		}
		t.AddRow(row.Query.Name, fmt.Sprintf("%d", row.Blocked), fmt.Sprintf("%d", row.Rendered), fp, fn)
	}
	return t.String()
}

// CrawlReport summarizes the two crawler methodologies (§4.4).
type CrawlReport struct {
	TraditionalStats crawler.TraditionalStats
	TraditionalKept  int
	PipelineStats    crawler.PipelineStats
	PipelineKept     int
}

// CrawlComparison runs both crawlers over the same pages, dedups both
// datasets, and reports the §4.4 contrast: the screenshot crawler's
// white-space race versus the pipeline crawler's clean captures.
func (h *Harness) CrawlComparison() (*CrawlReport, error) {
	corpus := webgen.NewCorpus(h.Seed+95, h.n(30))
	list, _ := easylist.Parse(corpus.SyntheticEasyList())
	var pages []string
	for _, s := range corpus.Sites {
		pages = append(pages, s.PageURLs...)
	}
	tc := &crawler.Traditional{Corpus: corpus, List: list, ScreenshotDelayMS: 400}
	tds, _, tstats, err := tc.Crawl(pages)
	if err != nil {
		return nil, err
	}
	tds.Dedup(3)
	pc := &crawler.Pipeline{Corpus: corpus, Labeler: crawler.GroundTruthLabeler{Corpus: corpus}}
	pds, pstats, err := pc.Crawl(pages, 0)
	if err != nil {
		return nil, err
	}
	pds.Dedup(3)
	return &CrawlReport{
		TraditionalStats: tstats, TraditionalKept: tds.Len(),
		PipelineStats: pstats, PipelineKept: pds.Len(),
	}, nil
}

// Table renders the crawler comparison.
func (r *CrawlReport) Table() string {
	t := metrics.Table{Header: []string{"Crawler", "Captured", "White-space", "Kept after dedup"}}
	t.AddRow("traditional (screenshots)", fmt.Sprintf("%d", r.TraditionalStats.Elements),
		fmt.Sprintf("%d", r.TraditionalStats.Whitespace), fmt.Sprintf("%d", r.TraditionalKept))
	t.AddRow("percival (pipeline)", fmt.Sprintf("%d", r.PipelineStats.Captured),
		fmt.Sprintf("%d", r.PipelineStats.Whitespace), fmt.Sprintf("%d", r.PipelineKept))
	return t.String()
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// titleCase upper-cases the first ASCII letter (language names in Fig. 9).
func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// hostOf extracts the host portion of a URL.
func hostOf(url string) string {
	rest := url
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexAny(rest, "/?"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// parseDoc parses page HTML into a DOM tree.
func parseDoc(html string) *dom.Node { return dom.Parse(html) }
