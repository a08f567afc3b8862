// Package dataset manages labelled image collections for training and
// evaluating PERCIVAL: balancing (§4.4.1 caps non-ads to the ad count so the
// classifier doesn't favor one class), de-duplication (the paper keeps only
// 15–20% of each crawl phase after removing duplicates), train/validation
// splits, and the tensor batching used by the training loop.
package dataset

import (
	"fmt"
	"math/rand"

	"percival/internal/imaging"
	"percival/internal/synth"
	"percival/internal/tensor"
)

// Label values for the binary ad-classification task.
const (
	NonAd = 0
	Ad    = 1
)

// Sample is one labelled image.
type Sample struct {
	Image *imaging.Bitmap
	Label int
	// PHash caches the perceptual hash for dedup prefiltering.
	PHash uint64
	// Thumb caches a small thumbnail for dedup confirmation.
	Thumb *imaging.Bitmap
}

// Dataset is an ordered collection of labelled samples.
type Dataset struct {
	Samples []Sample
}

// Add appends a sample, computing its dedup signatures.
func (d *Dataset) Add(img *imaging.Bitmap, label int) {
	d.Samples = append(d.Samples, Sample{
		Image: img,
		Label: label,
		PHash: imaging.PerceptualHash(img),
		Thumb: imaging.Thumbnail(img),
	})
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Samples) }

// Counts returns (ads, nonAds).
func (d *Dataset) Counts() (ads, nonAds int) {
	for _, s := range d.Samples {
		if s.Label == Ad {
			ads++
		} else {
			nonAds++
		}
	}
	return ads, nonAds
}

// dupThumbThreshold is the mean-absolute thumbnail difference below which
// two phash-similar images are confirmed duplicates (same creative,
// possibly rescaled or recompressed).
const dupThumbThreshold = 10.0

// Dedup removes exact and near duplicates in two stages: a perceptual-hash
// Hamming prefilter within the given radius, confirmed by a color-aware
// thumbnail comparison (the 64-bit aHash alone collides on distinct
// creatives that share a layout). Returns the number removed. The paper
// keeps only 15-20% of each crawl phase after this step (§4.4.2).
func (d *Dataset) Dedup(radius int) int {
	var kept []Sample
	removed := 0
	for _, s := range d.Samples {
		dup := false
		for i := range kept {
			if !imaging.NearDuplicate(kept[i].PHash, s.PHash, radius) {
				continue
			}
			if imaging.MeanAbsDiff(kept[i].Thumb, s.Thumb) <= dupThumbThreshold {
				dup = true
				break
			}
		}
		if dup {
			removed++
		} else {
			kept = append(kept, s)
		}
	}
	d.Samples = kept
	return removed
}

// Balance caps the majority class to the minority class count, shuffling
// first so the dropped samples are random (§4.4.1: "we limited the number of
// non ad and ad images to 2,000").
func (d *Dataset) Balance(rng *rand.Rand) {
	rng.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
	ads, nonAds := d.Counts()
	cap := ads
	if nonAds < cap {
		cap = nonAds
	}
	var out []Sample
	a, n := 0, 0
	for _, s := range d.Samples {
		if s.Label == Ad && a < cap {
			out = append(out, s)
			a++
		} else if s.Label == NonAd && n < cap {
			out = append(out, s)
			n++
		}
	}
	d.Samples = out
}

// Split partitions the dataset into train and validation sets with the given
// training fraction, after shuffling.
func (d *Dataset) Split(rng *rand.Rand, trainFrac float64) (train, val *Dataset) {
	rng.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
	n := int(float64(len(d.Samples)) * trainFrac)
	return &Dataset{Samples: d.Samples[:n]}, &Dataset{Samples: d.Samples[n:]}
}

// Merge appends all samples from other.
func (d *Dataset) Merge(other *Dataset) {
	d.Samples = append(d.Samples, other.Samples...)
}

// Batch materializes samples [lo,hi) as a network input batch at the given
// resolution, plus the label vector.
func (d *Dataset) Batch(lo, hi, res int) (*tensor.Tensor, []int) {
	if lo < 0 || hi > len(d.Samples) || lo >= hi {
		panic(fmt.Sprintf("dataset: bad batch range [%d,%d) of %d", lo, hi, len(d.Samples)))
	}
	bitmaps := make([]*imaging.Bitmap, 0, hi-lo)
	labels := make([]int, 0, hi-lo)
	for _, s := range d.Samples[lo:hi] {
		bitmaps = append(bitmaps, imaging.ResizeBilinear(s.Image, res, res))
		labels = append(labels, s.Label)
	}
	return imaging.BatchToTensor(bitmaps), labels
}

// Generate synthesizes a balanced dataset of n samples from a style.
func Generate(seed int64, style synth.Style, n int) *Dataset {
	g := synth.NewGenerator(seed, style)
	d := &Dataset{}
	for i := 0; i < n; i++ {
		img, label := g.Sample()
		d.Add(img, label)
	}
	return d
}

// GenerateUnbalanced synthesizes a dataset with explicit per-class counts —
// evaluation sets like Facebook's (354 ads vs 1,830 non-ads, Fig. 10) are
// heavily skewed.
func GenerateUnbalanced(seed int64, style synth.Style, ads, nonAds int) *Dataset {
	g := synth.NewGenerator(seed, style)
	d := &Dataset{}
	for i := 0; i < ads; i++ {
		d.Add(g.Ad(), Ad)
	}
	for i := 0; i < nonAds; i++ {
		d.Add(g.NonAd(), NonAd)
	}
	return d
}
