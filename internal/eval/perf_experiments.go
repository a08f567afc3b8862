package eval

import (
	"fmt"

	"percival/internal/browser"
	"percival/internal/core"
	"percival/internal/easylist"
	"percival/internal/metrics"
	"percival/internal/serve"
	"percival/internal/webgen"
)

// PerfCondition is one of the four Fig. 14 curves, with what the condition
// did on one render of each page: requests its list blocked and frames its
// inspector was shown. Those two are counts, the same on every run; the
// latencies are wall-clock.
type PerfCondition struct {
	Name        string
	Latencies   *metrics.Latencies
	ListBlocked int
	Inspected   int
}

// Fig14Report holds the render-time distributions for the four browser
// configurations (Chromium, Chromium+PERCIVAL, Brave, Brave+PERCIVAL).
type Fig14Report struct {
	Conditions []PerfCondition
	PagesEach  int
}

// Fig15Row is one overhead row (baseline vs treatment).
type Fig15Row struct {
	Baseline, Treatment string
	OverheadPct         float64
	OverheadMS          float64
}

// Fig15Report derives the median-overhead table from the Fig. 14 runs.
type Fig15Report struct{ Rows []Fig15Row }

// fig14Repeats is how many times each page renders per condition; keeping
// the fastest sample filters wall-clock noise (GC, scheduler) that would
// otherwise swamp the classifier's few-millisecond in-path cost at reduced
// resolution. The paper renders once per page but at 224px, where the model
// costs 11 ms/image and noise is relatively negligible.
const fig14Repeats = 3

// Fig14 renders the top-N synthetic sites under all four conditions with
// synchronous in-path classification (the paper's treatment) and collects
// the domLoading→domComplete distribution.
func (h *Harness) Fig14() (*Fig14Report, error) {
	corpus := webgen.NewCorpus(h.Seed+140, h.n(40))
	list, errs := easylist.Parse(corpus.SyntheticEasyList())
	if len(errs) > 0 {
		return nil, fmt.Errorf("eval: list: %v", errs)
	}
	var pages []string
	for _, s := range corpus.Sites {
		pages = append(pages, s.PageURLs[0]) // landing pages, like the paper
	}

	conditions := []struct {
		name    string
		profile browser.Profile
		insp    bool
	}{
		{"Chromium", browser.Chromium(), false},
		{"Chromium+PERCIVAL", browser.Chromium(), true},
		{"Brave", browser.Brave(list), false},
		{"Brave+PERCIVAL", browser.Brave(list), true},
	}
	rep := &Fig14Report{PagesEach: len(pages)}
	for _, cond := range conditions {
		cfg := browser.Config{Profile: cond.profile, Corpus: corpus}
		if cond.insp {
			// classify-every-image: repeats measure the model's in-path cost
			svc, err := h.Service()
			if err != nil {
				return nil, err
			}
			cfg.Inspector = svc
		}
		b, err := browser.New(cfg)
		if err != nil {
			return nil, err
		}
		pc := PerfCondition{Name: cond.name, Latencies: &metrics.Latencies{}}
		for _, u := range pages {
			best := 0.0
			for rep := 0; rep < fig14Repeats; rep++ {
				res, err := b.Render(u, 0)
				if err != nil {
					return nil, fmt.Errorf("eval: %s render %s: %w", cond.name, u, err)
				}
				if rep == 0 || res.RenderTimeMS < best {
					best = res.RenderTimeMS
				}
				if rep > 0 {
					continue
				}
				pc.Inspected += res.Stats.Inspects
				for _, im := range res.Images {
					if im.BlockedByList {
						pc.ListBlocked++
					}
				}
			}
			pc.Latencies.Add(best)
		}
		rep.Conditions = append(rep.Conditions, pc)
		h.logf("fig14: %-18s median %.1f ms over %d pages\n", cond.name, pc.Latencies.Median(), pc.Latencies.N())
	}
	return rep, nil
}

// Table renders the Fig. 14 CDFs as aligned percentile columns.
func (r *Fig14Report) Table() string {
	t := metrics.Table{Header: []string{"Percentile"}}
	for _, c := range r.Conditions {
		t.Header = append(t.Header, c.Name+" (ms)")
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 99} {
		row := []string{fmt.Sprintf("p%.0f", p)}
		for _, c := range r.Conditions {
			row = append(row, fmt.Sprintf("%.1f", c.Latencies.Percentile(p)))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Fig15 derives the overhead table from a Fig. 14 report.
func (h *Harness) Fig15(f14 *Fig14Report) (*Fig15Report, error) {
	med := map[string]float64{}
	for _, c := range f14.Conditions {
		med[c.Name] = c.Latencies.Median()
	}
	rows := []Fig15Row{}
	for _, pair := range [][2]string{
		{"Chromium", "Chromium+PERCIVAL"},
		{"Brave", "Brave+PERCIVAL"},
	} {
		base, treat := med[pair[0]], med[pair[1]]
		if base == 0 {
			return nil, fmt.Errorf("eval: missing condition %q", pair[0])
		}
		rows = append(rows, Fig15Row{
			Baseline:    pair[0],
			Treatment:   pair[1],
			OverheadPct: (treat - base) / base * 100,
			OverheadMS:  treat - base,
		})
	}
	return &Fig15Report{Rows: rows}, nil
}

// Table renders the Fig. 15 overhead table.
func (r *Fig15Report) Table() string {
	t := metrics.Table{Header: []string{"Baseline", "Treatment", "Overhead (%)", "(ms)"}}
	for _, row := range r.Rows {
		t.AddRow(row.Baseline, row.Treatment,
			fmt.Sprintf("%.2f", row.OverheadPct), fmt.Sprintf("%.2f", row.OverheadMS))
	}
	return t.String()
}

// AsyncReport contrasts the two deployment modes (§1): synchronous blocking
// in the critical path versus render-first on the serving stack, which
// memoizes verdicts for the next visit. The decisive fact is where the model
// runs: inside InspectFrame for every synchronous sighting, never on the
// rendering path in render-first mode (the same CPU is burned, but in
// serve's shard loops).
type AsyncReport struct {
	SyncStats      core.Stats // synchronous service after its pass
	AsyncStats     core.Stats // core under the server after both render-first visits
	Serve          ServeCounts
	SyncMedianMS   float64 // median per-page compute, synchronous
	AsyncMedianMS  float64 // median per-page compute, render-first first visit
	SyncAds        int     // ads that rendered (were not blocked) synchronously
	FirstVisitAds  int     // ads that rendered during render-first first visits
	SecondVisitAds int     // static ads still rendering on revisit
	// CacheHitsSecond counts the revisit's verdicts served from the store.
	CacheHitsSecond int64
}

// ServeCounts are the server's resolution counters after the render-first
// visits: every submission resolves exactly one way.
type ServeCounts struct {
	Submitted, CacheHits, Coalesced, Classified, Shed int64
}

// AsyncMemoization renders a page set synchronously, then twice render-first
// through a serve.Server: render-first must keep the model off the
// rendering path, and the verdicts the first visit stored must block on the
// revisit.
func (h *Harness) AsyncMemoization() (*AsyncReport, error) {
	corpus := webgen.NewCorpus(h.Seed+150, h.n(15))
	var pages []string
	for _, s := range corpus.Sites {
		pages = append(pages, s.PageURLs[0])
	}
	rep := &AsyncReport{}

	syncSvc, err := h.Service()
	if err != nil {
		return nil, err
	}
	bSync, _ := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus, Inspector: syncSvc})
	syncLat := &metrics.Latencies{}
	for _, u := range pages {
		res, err := bSync.Render(u, 0)
		if err != nil {
			return nil, err
		}
		syncLat.Add(res.ComputeMS)
		rep.SyncAds += adsShown(res, false)
	}
	rep.SyncMedianMS = syncLat.Median()
	rep.SyncStats = syncSvc.Stats()

	// the server's store persists across visits, like a profile would
	asyncSvc, err := h.Service()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(asyncSvc, serve.Options{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	bAsync, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus, AsyncServe: srv, RenderFirst: true})
	if err != nil {
		return nil, err
	}
	asyncLat := &metrics.Latencies{}
	for _, u := range pages {
		res, err := bAsync.Render(u, 0)
		if err != nil {
			return nil, err
		}
		asyncLat.Add(res.ComputeMS)
		rep.FirstVisitAds += adsShown(res, false)
	}
	rep.AsyncMedianMS = asyncLat.Median()

	m := srv.Metrics()
	hitsBefore := m.CacheHits.Load()
	for _, u := range pages {
		res, err := bAsync.Render(u, 0)
		if err != nil {
			return nil, err
		}
		rep.SecondVisitAds += adsShown(res, true)
	}
	rep.CacheHitsSecond = m.CacheHits.Load() - hitsBefore
	rep.AsyncStats = asyncSvc.Stats()
	rep.Serve = ServeCounts{m.Submitted.Load(), m.CacheHits.Load(), m.Coalesced.Load(), m.Classified.Load(), m.Shed.Load()}
	return rep, nil
}

// adsShown counts the ads a render drew, only the static ones (no rotation)
// if static is set.
func adsShown(res *browser.RenderResult, static bool) int {
	n := 0
	for _, ri := range res.Images {
		if ri.Spec.IsAd && !ri.BlockedByInspector && (!static || ri.Spec.RefreshMS == 0) {
			n++
		}
	}
	return n
}

// Table renders the deployment-mode comparison.
func (r *AsyncReport) Table() string {
	t := metrics.Table{Header: []string{"Mode", "In-path model runs", "Median page compute (ms)", "Ads shown (1st visit)", "Static ads shown (revisit)"}}
	t.AddRow("synchronous", fmt.Sprintf("%d", r.SyncStats.Classified), fmt.Sprintf("%.2f", r.SyncMedianMS),
		fmt.Sprintf("%d", r.SyncAds), "-")
	t.AddRow("render-first", fmt.Sprintf("%d", r.AsyncStats.Classified), fmt.Sprintf("%.2f", r.AsyncMedianMS),
		fmt.Sprintf("%d", r.FirstVisitAds), fmt.Sprintf("%d", r.SecondVisitAds))
	return t.String() + fmt.Sprintf("synchronous in-path inspector time: %.2f ms; revisit cache hits: %d\n",
		r.SyncStats.InPathMS, r.CacheHitsSecond)
}
