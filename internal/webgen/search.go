package webgen

import (
	"fmt"
	"math/rand"

	"percival/internal/imaging"
	"percival/internal/synth"
)

// SearchQuery is one image-search probe from §5.4 (Fig. 13): a query string
// with a ground-truth ad-intent level — the fraction of result images that
// are advertisements.
type SearchQuery struct {
	Name string
	// AdIntent is the probability a result image is an ad.
	AdIntent float64
	// Labeled mirrors the paper's "-" rows: for Shoes/Pastry/Coffee the
	// authors could not establish ground truth, so FP/FN are not reported.
	Labeled bool
}

// SearchQueries returns the Fig. 13 query set. Intents are derived from the
// paper's blocked/FP/FN counts (e.g. Obama: 12 blocked, all 12 false
// positives — intent 0; Advertisement: 96 blocked + 4 missed — intent 1).
func SearchQueries() []SearchQuery {
	return []SearchQuery{
		{Name: "Obama", AdIntent: 0.00, Labeled: true},
		{Name: "Advertisement", AdIntent: 1.00, Labeled: true},
		{Name: "Shoes", AdIntent: 0.56, Labeled: false},
		{Name: "Pastry", AdIntent: 0.14, Labeled: false},
		{Name: "Coffee", AdIntent: 0.23, Labeled: false},
		{Name: "Detergent", AdIntent: 0.81, Labeled: true},
		{Name: "iPhone", AdIntent: 0.54, Labeled: true},
	}
}

// GenerateSearchResults builds a result page of n images for a query. Each
// image is an ad with probability AdIntent; the mix of hard examples comes
// from the crawl style, modeling creatives in the wild.
func (c *Corpus) GenerateSearchResults(q SearchQuery, n int) *Page {
	rng := rand.New(rand.NewSource(c.seed ^ int64(hashString("search:"+q.Name))))
	site := &Site{Domain: "images.search.example", Rank: 2, Category: "search", Lang: "english"}
	url := fmt.Sprintf("http://%s/search?q=%s", site.Domain, q.Name)
	page := &Page{URL: url, Site: site}
	var html htmlBuilder
	html.open("html")
	html.open("body")
	style := synth.CrawlStyle()
	for i := 0; i < n; i++ {
		isAd := rng.Float64() < q.AdIntent
		imgURL := fmt.Sprintf("http://%s/result/%s/%d.jpg", site.Domain, q.Name, i)
		spec := &ImageSpec{
			URL: imgURL, IsAd: isAd, Kind: KindContent,
			Seed:        c.seed ^ int64(hashString(imgURL)),
			Style:       style,
			LoadDelayMS: 20 + rng.Float64()*80,
			Format:      imaging.JPEG,
		}
		page.Images = append(page.Images, spec)
		html.openAttrs("div", `class="result-tile"`)
		html.void("img", fmt.Sprintf(`src=%q`, imgURL))
		html.close("div")
	}
	html.close("body")
	html.close("html")
	page.HTML = html.String()
	c.RegisterPage(page)
	return page
}
