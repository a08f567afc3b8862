// Package webgen synthesizes the web corpus the experiments run against:
// an Alexa-style ranked site population with realistic page structure
// (content images, ad slots filled by third-party ad networks, dynamically
// refreshing iframes), a Facebook-like social site serving obfuscated
// first-party sponsored content (§5.3), image-search result pages with
// controlled ad intent (§5.4), regional language sites (§5.5), and a
// synthetic EasyList covering a realistic subset of the ad networks.
//
// Every image URL resolves deterministically to a creative specification;
// the browser's network layer materializes pixels on fetch via synth.
package webgen

import (
	"fmt"
	"math/rand"

	"percival/internal/imaging"
	"percival/internal/synth"
)

// ImageKind describes how a creative is embedded in a page.
type ImageKind int

// Embedding kinds.
const (
	KindContent      ImageKind = iota // editorial/content image
	KindAdImg                         // ad served as a direct <img> from a network CDN
	KindAdFrame                       // ad served inside a third-party iframe
	KindFirstPartyAd                  // ad served from the page's own origin
)

// ImageSpec is the deterministic recipe for one image URL.
type ImageSpec struct {
	URL   string
	IsAd  bool
	Kind  ImageKind
	Seed  int64
	Style synth.Style
	// Network is the serving ad network domain ("" for first-party/content).
	Network string
	// LoadDelayMS models fetch+decode latency after the document loads.
	LoadDelayMS float64
	// RefreshMS > 0 marks a dynamically refreshing creative (rotating ads in
	// iframes, §4.4.2's race-condition source).
	RefreshMS float64
	Format    imaging.Format
}

// Render materializes the creative deterministically from its seed. epoch
// selects the rotation for refreshing creatives (epoch 0 is the initial
// fill; the same URL shows different creatives over time).
func (s *ImageSpec) Render(epoch int) *imaging.Bitmap {
	seed := s.Seed
	if s.RefreshMS > 0 {
		seed += int64(epoch) * 7919
	}
	g := synth.NewGenerator(seed, s.Style)
	if s.IsAd {
		return g.Ad()
	}
	return g.NonAd()
}

// AdNetwork is one synthetic third-party ad server.
type AdNetwork struct {
	Domain string
	// Listed marks networks covered by the synthetic EasyList. Unlisted
	// networks model the rule gaps that motivate perceptual blocking.
	Listed bool
}

// Site is one synthetic website.
type Site struct {
	Domain   string
	Rank     int // 1-based Alexa-style rank
	Category string
	Lang     string
	PageURLs []string
}

// Page is a generated document.
type Page struct {
	URL  string
	Site *Site
	HTML string
	// Links are same-site URLs the crawler may follow.
	Links []string
	// Images lists every image reachable from the page, including those
	// inside iframes, with ground-truth labels.
	Images []*ImageSpec
	// FrameURLs lists third-party iframe documents embedded in the page.
	FrameURLs []string
}

// Corpus is the full synthetic web.
type Corpus struct {
	Sites    []*Site
	Networks []AdNetwork
	pages    map[string]*Page
	images   map[string]*ImageSpec
	seed     int64
}

// Categories used for site generation; news sites carry the heaviest ad
// load, matching the paper's choice of "Alexa top 500 news sites" for the
// EasyList comparison (§5.2).
var categories = []string{"news", "shopping", "blog", "reference", "video"}

// NewCorpus generates a ranked population of nSites sites with their pages.
// Generation is deterministic in seed.
func NewCorpus(seed int64, nSites int) *Corpus {
	c := &Corpus{
		pages:  map[string]*Page{},
		images: map[string]*ImageSpec{},
		seed:   seed,
	}
	rng := rand.New(rand.NewSource(seed))
	c.Networks = makeNetworks(rng)
	for rank := 1; rank <= nSites; rank++ {
		cat := categories[rng.Intn(len(categories))]
		site := &Site{
			Domain:   fmt.Sprintf("%s%d.example", cat, rank),
			Rank:     rank,
			Category: cat,
			Lang:     "english",
		}
		c.Sites = append(c.Sites, site)
		nPages := 3 + rng.Intn(4)
		for p := 0; p < nPages; p++ {
			page := c.generatePage(rng, site, p)
			site.PageURLs = append(site.PageURLs, page.URL)
		}
	}
	return c
}

// makeNetworks creates the ad-network population: 12 networks, two thirds
// covered by the synthetic EasyList.
func makeNetworks(rng *rand.Rand) []AdNetwork {
	names := []string{
		"adsrv", "clickbay", "bannerx", "promoweb", "trafficgen", "admaxx",
		"pixelpush", "sponsornet", "dispad", "advista", "quietads", "stealthad",
	}
	nets := make([]AdNetwork, len(names))
	for i, n := range names {
		nets[i] = AdNetwork{Domain: n + ".adnet.example", Listed: i < 10}
	}
	_ = rng
	return nets
}

// servePath picks the URL path segment a network serves creatives from.
// Listed networks use the conventional paths that EasyList's generic rules
// cover; unlisted networks deliberately avoid them — they are the freshly
// spun-up domains that evade out-of-date lists (§1).
func (c *Corpus) servePath(net AdNetwork, frame bool) string {
	if net.Listed {
		if frame {
			return "creative"
		}
		return "banners"
	}
	if frame {
		return "media"
	}
	return "assets"
}

// generatePage builds one document for a site: a header, paragraphs with
// content images, and ad slots, every creative in the training crawl's
// style. News sites get more slots.
func (c *Corpus) generatePage(rng *rand.Rand, site *Site, idx int) *Page {
	style := synth.CrawlStyle()
	url := fmt.Sprintf("http://%s/page%d.html", site.Domain, idx)
	page := &Page{URL: url, Site: site}
	var html htmlBuilder
	html.open("html")
	html.open("body")
	html.openAttrs("div", `class="header"`)
	html.close("div")

	adSlots := 2 + rng.Intn(3)
	if site.Category == "news" {
		adSlots = 3 + rng.Intn(4)
	}
	contentImgs := 2 + rng.Intn(3)

	// interleave content and ad slots
	for i := 0; i < contentImgs; i++ {
		imgURL := fmt.Sprintf("http://%s/img/%d-%d.jpg", site.Domain, idx, i)
		spec := &ImageSpec{
			URL: imgURL, IsAd: false, Kind: KindContent,
			Seed:        c.seed ^ int64(hashString(imgURL)),
			Style:       style,
			LoadDelayMS: 20 + rng.Float64()*120,
			Format:      imaging.JPEG,
		}
		c.images[imgURL] = spec
		page.Images = append(page.Images, spec)
		html.openAttrs("div", `class="article-body"`)
		html.void("img", fmt.Sprintf(`src=%q`, imgURL))
		html.text("Lorem ipsum editorial copy block.")
		html.close("div")
	}
	for i := 0; i < adSlots; i++ {
		net := c.Networks[rng.Intn(len(c.Networks))]
		slotClass := adSlotClass(rng)
		switch rng.Intn(3) {
		case 0: // direct third-party <img>
			imgURL := fmt.Sprintf("http://cdn.%s/%s/%d-%d-%d.png", net.Domain, c.servePath(net, false), site.Rank, idx, i)
			spec := &ImageSpec{
				URL: imgURL, IsAd: true, Kind: KindAdImg,
				Seed:        c.seed ^ int64(hashString(imgURL)),
				Style:       style,
				Network:     net.Domain,
				LoadDelayMS: 60 + rng.Float64()*240,
				Format:      imaging.PNG,
			}
			c.images[imgURL] = spec
			page.Images = append(page.Images, spec)
			html.openAttrs("div", fmt.Sprintf(`class=%q`, slotClass))
			html.void("img", fmt.Sprintf(`src=%q`, imgURL))
			html.close("div")
		case 1: // third-party iframe with rotating creative
			frameURL := fmt.Sprintf("http://%s/frame/%d-%d-%d.html", net.Domain, site.Rank, idx, i)
			imgURL := fmt.Sprintf("http://cdn.%s/%s/%d-%d-%d.png", net.Domain, c.servePath(net, true), site.Rank, idx, i)
			spec := &ImageSpec{
				URL: imgURL, IsAd: true, Kind: KindAdFrame,
				Seed:        c.seed ^ int64(hashString(imgURL)),
				Style:       style,
				Network:     net.Domain,
				LoadDelayMS: 150 + rng.Float64()*750,
				RefreshMS:   500 + rng.Float64()*1500,
				Format:      imaging.PNG,
			}
			c.images[imgURL] = spec
			page.Images = append(page.Images, spec)
			page.FrameURLs = append(page.FrameURLs, frameURL)
			c.pages[frameURL] = c.framePage(frameURL, site, spec)
			html.openAttrs("div", fmt.Sprintf(`class=%q`, slotClass))
			html.void("iframe", fmt.Sprintf(`src=%q`, frameURL))
			html.close("div")
		default: // first-party ad (EasyList blind spot)
			imgURL := fmt.Sprintf("http://%s/promo/native-%d-%d.png", site.Domain, idx, i)
			spec := &ImageSpec{
				URL: imgURL, IsAd: true, Kind: KindFirstPartyAd,
				Seed:        c.seed ^ int64(hashString(imgURL)),
				Style:       style,
				LoadDelayMS: 40 + rng.Float64()*160,
				Format:      imaging.PNG,
			}
			c.images[imgURL] = spec
			page.Images = append(page.Images, spec)
			html.openAttrs("div", fmt.Sprintf(`class=%q`, obfuscatedClass(rng)))
			html.void("img", fmt.Sprintf(`src=%q`, imgURL))
			html.close("div")
		}
	}
	html.close("body")
	html.close("html")
	page.HTML = html.String()
	c.pages[url] = page
	return page
}

// framePage builds the sub-document served inside an ad iframe.
func (c *Corpus) framePage(url string, site *Site, creative *ImageSpec) *Page {
	var html htmlBuilder
	html.open("html")
	html.open("body")
	html.void("img", fmt.Sprintf(`src=%q`, creative.URL))
	html.close("body")
	html.close("html")
	return &Page{URL: url, Site: site, HTML: html.String(), Images: []*ImageSpec{creative}}
}

// adSlotClass picks a container class; most are conventional (and covered by
// the synthetic EasyList cosmetic rules), some are novel.
func adSlotClass(rng *rand.Rand) string {
	classes := []string{"ad-banner", "sponsored-box", "ad-slot", "advert", "promo-unit", "widget-ext"}
	return classes[rng.Intn(len(classes))]
}

// obfuscatedClass models Facebook-style signature churn: a class name that
// changes per generation, defeating rule-based hiding (§5.3).
func obfuscatedClass(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, 8)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return "x" + string(b)
}

// Page returns the document at the URL.
func (c *Corpus) Page(url string) (*Page, bool) {
	p, ok := c.pages[url]
	return p, ok
}

// Image returns the creative spec for an image URL.
func (c *Corpus) Image(url string) (*ImageSpec, bool) {
	s, ok := c.images[url]
	return s, ok
}

// RegisterPage inserts an externally generated page (Facebook feed, search
// results) into the corpus.
func (c *Corpus) RegisterPage(p *Page) {
	c.pages[p.URL] = p
	for _, img := range p.Images {
		c.images[img.URL] = img
	}
}

// TopSites returns the n highest-ranked sites.
func (c *Corpus) TopSites(n int) []*Site {
	if n > len(c.Sites) {
		n = len(c.Sites)
	}
	return c.Sites[:n]
}

// hashString is a small FNV-1a for deterministic per-URL seeds.
func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
