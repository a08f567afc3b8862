package integration

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"percival/internal/browser"
	"percival/internal/core"
	"percival/internal/imaging"
	"percival/internal/webgen"
)

var updateSurfaces = flag.Bool("update-surfaces", false, "rewrite the golden surface hashes")

// surfacePage pins the pixels of one golden page: the rendered surface with
// no inspector and with the FP32 inspector attached, and every creative's
// decoded frame. Each value is the hex imaging.ContentKey of the bitmap.
type surfacePage struct {
	URL       string            `json:"url"`
	Base      string            `json:"base"`
	Inspected string            `json:"inspected"`
	Creatives map[string]string `json:"creatives"`
}

type goldenSurfaceSet struct {
	Seed  int64         `json:"seed"`
	Sites int           `json:"sites"`
	Pages []surfacePage `json:"pages"`
}

const surfacesPath = "testdata/golden_surfaces.json"

func pixelKey(b *imaging.Bitmap) string {
	k := imaging.ContentKey(b)
	return hex.EncodeToString(k[:])
}

// TestGoldenSurfaces is the pixel pin under the blocked-set pin: the decode
// and raster paths (codec conversion, image blits, fills) must reproduce
// every surface and every decoded creative byte for byte. The file was
// written before those paths were rewritten for speed; never regenerate it
// to make a change pass. Regenerate (only for a deliberate rendering
// change) with: go test ./internal/integration -run GoldenSurfaces -update-surfaces
func TestGoldenSurfaces(t *testing.T) {
	net, arch := trainedModel(t)
	corpus := webgen.NewCorpus(goldenSeed, goldenSites)
	inspector, err := core.New(net, arch, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	inspected, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus, Inspector: inspector})
	if err != nil {
		t.Fatal(err)
	}

	got := goldenSurfaceSet{Seed: goldenSeed, Sites: goldenSites}
	for _, site := range corpus.TopSites(goldenSites) {
		url := site.PageURLs[0]
		b, err := base.Render(url, 0)
		if err != nil {
			t.Fatal(err)
		}
		in, err := inspected.Render(url, 0)
		if err != nil {
			t.Fatal(err)
		}
		sp := surfacePage{URL: url, Base: pixelKey(b.Surface), Inspected: pixelKey(in.Surface), Creatives: map[string]string{}}
		for _, ri := range b.Images {
			data, err := imaging.Encode(ri.Spec.Render(0), ri.Spec.Format)
			if err != nil {
				t.Fatal(err)
			}
			frame, _, err := imaging.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			sp.Creatives[ri.Spec.URL] = pixelKey(frame)
		}
		got.Pages = append(got.Pages, sp)
	}

	if *updateSurfaces {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(surfacesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", surfacesPath)
	}

	data, err := os.ReadFile(surfacesPath)
	if err != nil {
		t.Fatalf("read golden surfaces: %v", err)
	}
	var want goldenSurfaceSet
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != goldenSeed || want.Sites != goldenSites || len(want.Pages) != len(got.Pages) {
		t.Fatalf("golden surfaces pin corpus %d/%d with %d pages, test renders %d/%d with %d",
			want.Seed, want.Sites, len(want.Pages), goldenSeed, goldenSites, len(got.Pages))
	}
	creatives := 0
	for i, gp := range got.Pages {
		wp := want.Pages[i]
		if gp.URL != wp.URL {
			t.Fatalf("page %d: url %s, golden %s", i, gp.URL, wp.URL)
		}
		if gp.Base != wp.Base {
			t.Errorf("%s: base surface %s, golden %s", gp.URL, gp.Base, wp.Base)
		}
		if gp.Inspected != wp.Inspected {
			t.Errorf("%s: inspected surface %s, golden %s", gp.URL, gp.Inspected, wp.Inspected)
		}
		if len(gp.Creatives) != len(wp.Creatives) {
			t.Errorf("%s: %d creatives, golden %d", gp.URL, len(gp.Creatives), len(wp.Creatives))
		}
		for src, key := range wp.Creatives {
			if gp.Creatives[src] != key {
				t.Errorf("%s: decoded %s is %q, golden %s", gp.URL, src, gp.Creatives[src], key)
			}
		}
		creatives += len(gp.Creatives)
	}
	if creatives == 0 {
		t.Fatal("golden corpus decodes no creatives")
	}
}
