package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"percival/internal/imaging"
	"percival/internal/synth"
	"percival/internal/webgen"
)

// The seed decides what the inputs look like, not how much work they are:
// hashing, decode and encode cost follow pixel count, so a frame or page set
// drawn freely would make every metric move with the seed (ten free draws of
// ten pages spread page time by 8%). Inputs are therefore stratified — the
// same size classes in the same numbers on every seed, filled with that
// seed's creatives.

// frameSizes are the creative sizes synth draws from; a frame set holds the
// same number of each.
var frameSizes = append(append([]synth.Size(nil), synth.AdSizes...), synth.ContentSizes...)

// stratifiedFrames returns perSize distinct crawl-style frames of every size
// class, size-major (all frames of frameSizes[0] first). It errors when the
// generator cannot fill a class within a bounded number of draws.
func stratifiedFrames(seed int64, perSize int) ([]*imaging.Bitmap, error) {
	g := synth.NewGenerator(seed, synth.CrawlStyle())
	buckets := make(map[synth.Size][]*imaging.Bitmap, len(frameSizes))
	for _, sz := range frameSizes {
		buckets[sz] = nil
	}
	seen := map[[32]byte]bool{}
	missing := len(frameSizes)
	for draws := 0; missing > 0; draws++ {
		if draws > 400*perSize*len(frameSizes) {
			return nil, fmt.Errorf("inputs: seed %d: %d size classes still short after %d draws", seed, missing, draws)
		}
		f, _ := g.Sample()
		sz := synth.Size{W: f.W, H: f.H}
		have, ok := buckets[sz]
		if !ok || len(have) >= perSize {
			continue
		}
		key := imaging.ContentKey(f)
		if seen[key] {
			continue // a repeated creative would hit the cache on a "unique" stream
		}
		seen[key] = true
		buckets[sz] = append(have, f)
		if len(have)+1 == perSize {
			missing--
		}
	}
	out := make([]*imaging.Bitmap, 0, perSize*len(frameSizes))
	for _, sz := range frameSizes {
		out = append(out, buckets[sz]...)
	}
	return out, nil
}

// splitClients deals a size-major frame set to n clients so each gets the
// same number of every size class, then shuffles each client's order by seed.
func splitClients(frames []*imaging.Bitmap, perSize, n int, seed int64) [][]*imaging.Bitmap {
	out := make([][]*imaging.Bitmap, n)
	for i, f := range frames {
		c := (i % perSize) % n
		out[c] = append(out[c], f)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, fs := range out {
		rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	}
	return out
}

// Page shape every selected page has: contentImgs editorial images and
// adSlots ad creatives (the corpus' most common shape, and the "~7 frames a
// page submits at once"), with decoded pixel totals near the targets.
const (
	pageContentImgs = 3
	pageAdSlots     = 4
	pageContentPx   = 400e3
	pageAdPx        = 250e3
	pageImgHeight   = 1750 // Σ creative heights: sets document height, so surface size
	corpusSites     = 200
)

// benchPage is one selected page with its creatives materialised once.
type benchPage struct {
	URL    string
	Page   *webgen.Page
	Frames []*imaging.Bitmap // spec.Render(0) of Page.Images, same order
}

// selectPages builds the seed's corpus and returns the n pages of the fixed
// shape whose pixel totals and summed creative height sit closest to the
// targets (the size classes' means), in seed-shuffled order. Pages carrying
// a creative of a non-standard size for its role (an ad rendered photo-sized,
// whose PNG costs 10× a banner's) are left out.
func selectPages(seed int64, n int) (*webgen.Corpus, []benchPage, error) {
	corpus := webgen.NewCorpus(seed, corpusSites)
	adSize := map[synth.Size]bool{}
	for _, sz := range synth.AdSizes {
		adSize[sz] = true
	}
	contentSize := map[synth.Size]bool{}
	for _, sz := range synth.ContentSizes {
		contentSize[sz] = true
	}
	type cand struct {
		url  string
		page *webgen.Page
		dist float64
	}
	var cands []cand
	for _, site := range corpus.Sites {
	pages:
		for _, url := range site.PageURLs {
			page, _ := corpus.Page(url)
			content, ads := 0, 0
			for _, im := range page.Images {
				if im.IsAd {
					ads++
				} else {
					content++
				}
			}
			if content != pageContentImgs || ads != pageAdSlots {
				continue
			}
			// measured and dropped: a hundred candidates' creatives held at
			// once would be 250 MB of the harness's own in peak_rss_mb
			contentPx, adPx, height := 0, 0, 0
			for _, im := range page.Images {
				bm := im.Render(0)
				sz := synth.Size{W: bm.W, H: bm.H}
				if im.IsAd {
					if !adSize[sz] {
						continue pages
					}
					adPx += bm.W * bm.H
				} else {
					if !contentSize[sz] {
						continue pages
					}
					contentPx += bm.W * bm.H
				}
				height += bm.H
			}
			cands = append(cands, cand{url, page, math.Abs(float64(contentPx)/pageContentPx-1) +
				math.Abs(float64(adPx)/pageAdPx-1) + math.Abs(float64(height)/pageImgHeight-1)})
		}
	}
	if len(cands) < n {
		return nil, nil, fmt.Errorf("inputs: seed %d: only %d pages of shape %d+%d, need %d",
			seed, len(cands), pageContentImgs, pageAdSlots, n)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	out := make([]benchPage, n)
	for i := range out {
		out[i] = benchPage{URL: cands[i].url, Page: cands[i].page}
		for _, im := range cands[i].page.Images {
			out[i].Frames = append(out[i].Frames, im.Render(0))
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return corpus, out, nil
}
