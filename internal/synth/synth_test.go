package synth

import (
	"testing"

	"percival/internal/imaging"
)

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(42, CrawlStyle())
	b := NewGenerator(42, CrawlStyle())
	for i := 0; i < 10; i++ {
		x, lx := a.Sample()
		y, ly := b.Sample()
		if lx != ly {
			t.Fatal("labels diverge under same seed")
		}
		if imaging.ContentKey(x) != imaging.ContentKey(y) {
			t.Fatal("images diverge under same seed")
		}
	}
	c := NewGenerator(43, CrawlStyle())
	diff := false
	for i := 0; i < 10; i++ {
		x, _ := a.Sample()
		y, _ := c.Sample()
		if imaging.ContentKey(x) != imaging.ContentKey(y) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds should produce different streams")
	}
}

func TestAdSizesAreIABGeometries(t *testing.T) {
	g := NewGenerator(1, CrawlStyle())
	g.style.HardAdFrac = 0 // force pure ad templates
	sizes := map[Size]bool{}
	for _, s := range AdSizes {
		sizes[s] = true
	}
	for i := 0; i < 50; i++ {
		ad := g.Ad()
		if !sizes[Size{ad.W, ad.H}] {
			t.Fatalf("ad size %dx%d not an IAB geometry", ad.W, ad.H)
		}
	}
}

func TestSampleBalance(t *testing.T) {
	g := NewGenerator(7, CrawlStyle())
	ads := 0
	const n = 2000
	for i := 0; i < n; i++ {
		_, label := g.Sample()
		if label == 1 {
			ads++
		}
	}
	frac := float64(ads) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("ad fraction %v not balanced", frac)
	}
}

func TestHardFractionsChangeRendering(t *testing.T) {
	// With HardAdFrac=1, every "ad" must use content templates, which come in
	// content geometries.
	s := CrawlStyle()
	s.HardAdFrac = 1
	g := NewGenerator(3, s)
	contentSizes := map[Size]bool{}
	for _, sz := range ContentSizes {
		contentSizes[sz] = true
	}
	for i := 0; i < 20; i++ {
		ad := g.Ad()
		if !contentSizes[Size{ad.W, ad.H}] {
			t.Fatalf("hard ad rendered with ad geometry %dx%d", ad.W, ad.H)
		}
	}
	s.HardAdFrac = 0
	s.HardNonAdFrac = 1
	g = NewGenerator(3, s)
	adSizes := map[Size]bool{}
	for _, sz := range AdSizes {
		adSizes[sz] = true
	}
	for i := 0; i < 20; i++ {
		non := g.NonAd()
		if !adSizes[Size{non.W, non.H}] {
			t.Fatalf("hard non-ad rendered with content geometry %dx%d", non.W, non.H)
		}
	}
}

func TestLanguageStyles(t *testing.T) {
	for _, lang := range Languages() {
		s, ok := LanguageStyle(lang)
		if !ok {
			t.Fatalf("missing style for %s", lang)
		}
		if s.Name != lang {
			t.Fatalf("style name %q for %s", s.Name, lang)
		}
		g := NewGenerator(1, s)
		ad := g.Ad()
		if ad.W == 0 || ad.H == 0 {
			t.Fatalf("%s: degenerate ad", lang)
		}
	}
	if _, ok := LanguageStyle("klingon"); ok {
		t.Fatal("unknown language should not resolve")
	}
	if len(Languages()) != 5 {
		t.Fatalf("Fig. 9 evaluates 5 languages, got %d", len(Languages()))
	}
}

func TestScriptsProduceDifferentTextTexture(t *testing.T) {
	// Render the same text-ad template under Latin vs Han scripts; the ink
	// coverage must differ noticeably (CJK text is denser).
	mk := func(script Script, density float64) float64 {
		s := CrawlStyle()
		s.Script = script
		s.TextDensity = density
		g := NewGenerator(11, s)
		b := g.renderTextAd(Size{300, 250})
		// measure fraction of pixels deviating from the background
		bg := b.At(150, 248)
		diff := 0
		for y := 0; y < b.H; y++ {
			for x := 0; x < b.W; x++ {
				if b.At(x, y) != bg {
					diff++
				}
			}
		}
		return float64(diff) / float64(b.W*b.H)
	}
	latin := mk(Latin, 1)
	han := mk(Han, 1.6)
	if han <= latin {
		t.Fatalf("Han ink coverage %v should exceed Latin %v", han, latin)
	}
}

func TestAdChoicesMarkerInTopRightCorner(t *testing.T) {
	s := CrawlStyle()
	s.HardAdFrac = 0
	g := NewGenerator(5, s)
	found := 0
	for i := 0; i < 40; i++ {
		ad := g.renderBanner(Size{300, 250})
		// look for the blue chevron pixels in the top-right 16x16 box
		blue := 0
		for y := 0; y < 16; y++ {
			for x := ad.W - 16; x < ad.W; x++ {
				c := ad.At(x, y)
				if c.B > 150 && c.R < 100 {
					blue++
				}
			}
		}
		if blue > 5 {
			found++
		}
	}
	if found < 30 { // marker appears with p=0.9
		t.Fatalf("AdChoices marker found on only %d/40 banners", found)
	}
}

func TestDistributionStylesDiffer(t *testing.T) {
	crawl := CrawlStyle()
	ext := ExternalStyle()
	fb := FacebookStyle()
	if ext.PaletteShift == crawl.PaletteShift {
		t.Fatal("external style should shift the palette")
	}
	if fb.HardAdFrac <= crawl.HardAdFrac {
		t.Fatal("facebook sponsored content must be harder to spot than crawl ads")
	}
	if ext.HardNonAdFrac <= crawl.HardNonAdFrac {
		t.Fatal("external negatives should be more ad-like")
	}
}

func TestTextDensityDefaulting(t *testing.T) {
	g := NewGenerator(1, Style{Name: "zero"})
	if g.Style().TextDensity != 1 {
		t.Fatal("zero TextDensity must default to 1")
	}
}

func TestAllTemplatesRenderAtAllSizes(t *testing.T) {
	g := NewGenerator(9, CrawlStyle())
	for _, sz := range append(append([]Size{}, AdSizes...), ContentSizes...) {
		for _, f := range []func(Size) *imaging.Bitmap{
			g.renderBanner, g.renderProductCard, g.renderTextAd,
			g.renderPhoto, g.renderUIScreenshot, g.renderIcon, g.renderPortrait,
		} {
			b := f(sz)
			if b.W != sz.W || b.H != sz.H {
				t.Fatalf("template rendered %dx%d for size %v", b.W, b.H, sz)
			}
		}
	}
}
