package webgen

import (
	"strings"
	"testing"

	"percival/internal/dom"
	"percival/internal/easylist"
	"percival/internal/imaging"
)

func TestCorpusDeterminism(t *testing.T) {
	a := NewCorpus(42, 5)
	b := NewCorpus(42, 5)
	if len(a.Sites) != len(b.Sites) {
		t.Fatal("site counts differ")
	}
	for i := range a.Sites {
		if a.Sites[i].Domain != b.Sites[i].Domain {
			t.Fatal("domains differ under same seed")
		}
		pa, _ := a.Page(a.Sites[i].PageURLs[0])
		pb, _ := b.Page(b.Sites[i].PageURLs[0])
		if pa.HTML != pb.HTML {
			t.Fatal("page HTML differs under same seed")
		}
	}
}

func TestPagesParseAndReferenceImages(t *testing.T) {
	c := NewCorpus(1, 10)
	for _, site := range c.Sites {
		for _, u := range site.PageURLs {
			page, ok := c.Page(u)
			if !ok {
				t.Fatalf("page %s missing", u)
			}
			root := dom.Parse(page.HTML)
			imgs := root.ByTag("img")
			frames := root.ByTag("iframe")
			// every top-level img src must resolve to a registered spec
			for _, img := range imgs {
				src := img.Attrs["src"]
				if _, ok := c.Image(src); !ok {
					t.Fatalf("img %s not registered", src)
				}
			}
			// every iframe must resolve to a sub-document with one creative
			for _, f := range frames {
				sub, ok := c.Page(f.Attrs["src"])
				if !ok {
					t.Fatalf("frame %s not registered", f.Attrs["src"])
				}
				if len(sub.Images) != 1 || !sub.Images[0].IsAd {
					t.Fatalf("frame %s should hold one ad creative", f.Attrs["src"])
				}
			}
			// page.Images covers both direct imgs and frame creatives
			if len(page.Images) != len(imgs)+len(frames) {
				t.Fatalf("page %s: Images=%d, dom imgs=%d frames=%d", u, len(page.Images), len(imgs), len(frames))
			}
		}
	}
}

func TestImageSpecsRenderDeterministically(t *testing.T) {
	c := NewCorpus(2, 3)
	page, _ := c.Page(c.Sites[0].PageURLs[0])
	for _, spec := range page.Images {
		a := spec.Render(0)
		b := spec.Render(0)
		if imaging.ContentKey(a) != imaging.ContentKey(b) {
			t.Fatalf("%s renders nondeterministically", spec.URL)
		}
	}
}

func TestRefreshingCreativesRotate(t *testing.T) {
	c := NewCorpus(3, 20)
	var rotating *ImageSpec
	for _, s := range c.Sites {
		for _, u := range s.PageURLs {
			p, _ := c.Page(u)
			for _, spec := range p.Images {
				if spec.RefreshMS > 0 {
					rotating = spec
				}
			}
		}
	}
	if rotating == nil {
		t.Fatal("corpus generated no rotating iframe creatives")
	}
	e0 := rotating.Render(0)
	e1 := rotating.Render(1)
	if imaging.ContentKey(e0) == imaging.ContentKey(e1) {
		t.Fatal("rotating creative should differ across epochs")
	}
}

func TestGroundTruthKinds(t *testing.T) {
	c := NewCorpus(4, 30)
	kinds := map[ImageKind]int{}
	for _, s := range c.Sites {
		for _, u := range s.PageURLs {
			p, _ := c.Page(u)
			for _, spec := range p.Images {
				kinds[spec.Kind]++
				if spec.Kind == KindContent && spec.IsAd {
					t.Fatal("content image labelled ad")
				}
				if spec.Kind != KindContent && !spec.IsAd {
					t.Fatal("ad slot labelled non-ad")
				}
			}
		}
	}
	for _, k := range []ImageKind{KindContent, KindAdImg, KindAdFrame, KindFirstPartyAd} {
		if kinds[k] == 0 {
			t.Fatalf("no images of kind %d generated", k)
		}
	}
}

func TestSyntheticEasyListParsesAndMatchesListedNetworks(t *testing.T) {
	c := NewCorpus(5, 40)
	list, errs := easylist.Parse(c.SyntheticEasyList())
	if len(errs) > 0 {
		t.Fatalf("synthetic list has parse errors: %v", errs)
	}
	if len(list.Network) == 0 || len(list.Cosmetic) == 0 {
		t.Fatal("list should carry both rule kinds")
	}
	// listed networks' creatives must be blocked; first-party ads must not
	var listedBlocked, listedTotal, fpBlocked, fpTotal int
	for _, s := range c.Sites {
		for _, u := range s.PageURLs {
			p, _ := c.Page(u)
			for _, spec := range p.Images {
				req := easylist.Request{
					URL: spec.URL, Domain: hostOf(spec.URL), PageDomain: s.Domain, Type: easylist.TypeImage,
				}
				blocked := list.ShouldBlock(req)
				switch spec.Kind {
				case KindAdImg, KindAdFrame:
					if isListed(c, spec.Network) {
						listedTotal++
						if blocked {
							listedBlocked++
						}
					}
				case KindFirstPartyAd:
					fpTotal++
					if blocked {
						fpBlocked++
					}
				}
			}
		}
	}
	if listedTotal == 0 {
		t.Fatal("no listed-network creatives in corpus")
	}
	if listedBlocked != listedTotal {
		t.Fatalf("listed networks: %d/%d blocked", listedBlocked, listedTotal)
	}
	if fpBlocked != 0 {
		t.Fatalf("first-party ads blocked by list: %d/%d (lists should miss them)", fpBlocked, fpTotal)
	}
}

func isListed(c *Corpus, network string) bool {
	for _, n := range c.Networks {
		if n.Domain == network {
			return n.Listed
		}
	}
	return false
}

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

func TestFacebookFeedSessions(t *testing.T) {
	c := NewCorpus(6, 3)
	s1 := c.GenerateFeedSession(1)
	s2 := c.GenerateFeedSession(2)
	if s1.Page.URL == s2.Page.URL {
		t.Fatal("sessions should have distinct URLs")
	}
	kinds := map[PostKind]int{}
	ads, nonAds := 0, 0
	for i := 1; i <= 40; i++ {
		fs := c.GenerateFeedSession(i)
		for url, kind := range fs.Kinds {
			kinds[kind]++
			spec, ok := c.Image(url)
			if !ok {
				t.Fatalf("feed image %s not registered", url)
			}
			isAdKind := kind == SponsoredPost || kind == RightColumnAd
			if spec.IsAd != isAdKind {
				t.Fatalf("kind %d with IsAd=%v", kind, spec.IsAd)
			}
			if spec.IsAd {
				ads++
			} else {
				nonAds++
			}
		}
	}
	if kinds[RightColumnAd] != 80 {
		t.Fatalf("expected 2 right-column ads per session, got %d over 40", kinds[RightColumnAd])
	}
	if kinds[SponsoredPost] == 0 || kinds[BrandPost] == 0 || kinds[OrganicPost] == 0 {
		t.Fatalf("kind mix: %v", kinds)
	}
	// feed is ad-light like the paper's (354 ads vs 1830 non-ads)
	if ads >= nonAds {
		t.Fatalf("feed should be mostly organic: %d ads vs %d non-ads", ads, nonAds)
	}
	// obfuscated signatures: a filter list has nothing to match
	list, _ := easylist.Parse(c.SyntheticEasyList())
	sel := list.HideSelectors(FacebookDomain)
	root := dom.Parse(s1.Page.HTML)
	for _, s := range sel {
		if len(root.QuerySelectorAll(s)) > 0 {
			t.Fatalf("cosmetic rule %q matched obfuscated feed", s)
		}
	}
}

func TestSearchResultIntents(t *testing.T) {
	c := NewCorpus(7, 2)
	queries := SearchQueries()
	if len(queries) != 7 {
		t.Fatalf("Fig. 13 has 7 queries, got %d", len(queries))
	}
	for _, q := range queries {
		page := c.GenerateSearchResults(q, 100)
		if len(page.Images) != 100 {
			t.Fatalf("%s: %d images", q.Name, len(page.Images))
		}
		ads := 0
		for _, spec := range page.Images {
			if spec.IsAd {
				ads++
			}
		}
		frac := float64(ads) / 100
		if frac < q.AdIntent-0.15 || frac > q.AdIntent+0.15 {
			t.Fatalf("%s: ad fraction %.2f, intent %.2f", q.Name, frac, q.AdIntent)
		}
	}
}

func TestTopSites(t *testing.T) {
	c := NewCorpus(9, 10)
	top := c.TopSites(3)
	if len(top) != 3 || top[0].Rank != 1 {
		t.Fatalf("TopSites wrong: %+v", top)
	}
	if len(c.TopSites(99)) != 10 {
		t.Fatal("TopSites should clamp")
	}
}
