package integration

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"percival/internal/browser"
	"percival/internal/core"
	"percival/internal/easylist"
	"percival/internal/synth"
	"percival/internal/webgen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden render files")

// goldenSeed/goldenSites pin the corpus the golden files were generated
// from; changing either requires regenerating with -update.
const (
	goldenSeed  = 7202
	goldenSites = 8
)

// goldenPage records the observable blocking outcome of rendering one page
// under the three §5.7 profiles: stock Chromium (nothing blocked), Brave
// shields (filter-list request blocking + element hiding), and Chromium
// with the PERCIVAL inspector attached (perceptual blocking).
type goldenPage struct {
	URL string `json:"url"`
	// Images is every creative considered, sorted by URL.
	Images []string `json:"images"`
	// ListBlocked is the Brave profile's request-blocked set.
	ListBlocked []string `json:"list_blocked"`
	// HiddenContainers is the Brave profile's cosmetic-rule count.
	HiddenContainers int `json:"hidden_containers"`
	// ModelBlocked is the set cleared by the FP32 PERCIVAL inspector.
	ModelBlocked []string `json:"model_blocked"`
}

type goldenRender struct {
	Seed  int64        `json:"seed"`
	Sites int          `json:"sites"`
	Pages []goldenPage `json:"pages"`
}

const goldenPath = "testdata/golden_render.json"

// renderProfiles renders every top-site front page under the three
// profiles, using the given inspector for the PERCIVAL profile.
func renderProfiles(t *testing.T, corpus *webgen.Corpus, list *easylist.List, inspector *core.Percival) []goldenPage {
	t.Helper()
	chromium, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	brave, err := browser.New(browser.Config{Profile: browser.Brave(list), Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	percival, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus, Inspector: inspector})
	if err != nil {
		t.Fatal(err)
	}
	var pages []goldenPage
	for _, site := range corpus.TopSites(goldenSites) {
		url := site.PageURLs[0]
		gp := goldenPage{URL: url}

		base, err := chromium.Render(url, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range base.Images {
			gp.Images = append(gp.Images, ri.Spec.URL)
			if ri.BlockedByList || ri.BlockedByInspector {
				t.Fatalf("%s: stock Chromium blocked %s", url, ri.Spec.URL)
			}
		}
		sort.Strings(gp.Images)

		shielded, err := brave.Render(url, 0)
		if err != nil {
			t.Fatal(err)
		}
		gp.HiddenContainers = shielded.HiddenContainers
		for _, ri := range shielded.Images {
			if ri.BlockedByList {
				gp.ListBlocked = append(gp.ListBlocked, ri.Spec.URL)
			}
		}
		sort.Strings(gp.ListBlocked)

		inspected, err := percival.Render(url, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range inspected.Images {
			if ri.BlockedByInspector {
				gp.ModelBlocked = append(gp.ModelBlocked, ri.Spec.URL)
			}
		}
		sort.Strings(gp.ModelBlocked)

		pages = append(pages, gp)
	}
	return pages
}

// TestGoldenRenderBlockedSets is the end-to-end pin: a seeded corpus
// rendered under the Chromium / Brave / PERCIVAL-inspector profiles must
// reproduce the committed blocked-element sets exactly, and the INT8 engine
// must produce the identical verdict set as FP32 on the same corpus.
// Regenerate with: go test ./internal/integration -run Golden -update
func TestGoldenRenderBlockedSets(t *testing.T) {
	net, arch := trainedModel(t)
	corpus := webgen.NewCorpus(goldenSeed, goldenSites)
	list, errs := easylist.Parse(corpus.SyntheticEasyList())
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}

	fp32, err := core.New(net, arch, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRender{Seed: goldenSeed, Sites: goldenSites, Pages: renderProfiles(t, corpus, list, fp32)}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want goldenRender
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != goldenSeed || want.Sites != goldenSites {
		t.Fatalf("golden file pins corpus %d/%d, test uses %d/%d — regenerate with -update",
			want.Seed, want.Sites, goldenSeed, goldenSites)
	}
	if len(want.Pages) != len(got.Pages) {
		t.Fatalf("rendered %d pages, golden has %d", len(got.Pages), len(want.Pages))
	}
	blockedTotal := 0
	for i, gp := range got.Pages {
		wp := want.Pages[i]
		if gp.URL != wp.URL {
			t.Fatalf("page %d: url %s, golden %s", i, gp.URL, wp.URL)
		}
		assertSameSet(t, gp.URL, "images", gp.Images, wp.Images)
		assertSameSet(t, gp.URL, "list-blocked", gp.ListBlocked, wp.ListBlocked)
		assertSameSet(t, gp.URL, "model-blocked", gp.ModelBlocked, wp.ModelBlocked)
		if gp.HiddenContainers != wp.HiddenContainers {
			t.Errorf("%s: hid %d containers, golden %d", gp.URL, gp.HiddenContainers, wp.HiddenContainers)
		}
		blockedTotal += len(gp.ModelBlocked) + len(gp.ListBlocked)
	}
	if blockedTotal == 0 {
		t.Fatal("golden corpus exercises no blocking at all")
	}

	// INT8 parity leg: the quantized engine, gated on the same model, must
	// reproduce the FP32 verdict set exactly on this corpus.
	int8svc, err := core.New(net, arch, core.Options{
		Quantized: true,
		// activation floor only — verdict-set identity is asserted below,
		// which is strictly stronger than any agreement fraction
		ParityMinAgreement: 0.5,
		CalibFrames:        synth.SampleFrames(goldenSeed+1, 24),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !int8svc.QuantizedActive() {
		t.Fatalf("INT8 engine did not activate (parity %.3f)", int8svc.ParityAgreement())
	}
	int8Pages := renderProfiles(t, webgen.NewCorpus(goldenSeed, goldenSites), list, int8svc)
	for i, gp := range got.Pages {
		assertSameSet(t, gp.URL, "int8-vs-fp32 model-blocked", int8Pages[i].ModelBlocked, gp.ModelBlocked)
	}
}

// assertSameSet compares two sorted string sets with readable diffs.
func assertSameSet(t *testing.T, url, what string, got, want []string) {
	t.Helper()
	gm := map[string]bool{}
	for _, g := range got {
		gm[g] = true
	}
	wm := map[string]bool{}
	for _, w := range want {
		wm[w] = true
	}
	for _, w := range want {
		if !gm[w] {
			t.Errorf("%s: %s missing %s", url, what, w)
		}
	}
	for _, g := range got {
		if !wm[g] {
			t.Errorf("%s: %s has unexpected %s", url, what, g)
		}
	}
}
