package tensor

import "sync/atomic"

// foldAlpha switches the alpha fold on. Only tests switch it off, to hold
// the folded product to the unfolded one bit for bit.
var foldAlpha = true

// foldsAlpha reports whether PackConvWeights gives a convolution an alpha
// fold: one over the four planes of an RGBA image, read through a view.
func foldsAlpha(s ConvSpec) bool { return s.InC == 4 && !s.is1x1Fast() }

// alphaFold lets a convolution over an RGBA image skip its alpha plane
// where the image is opaque. The alpha taps lead K (ConvSpec.kOrder), so
// every output's FMA chain runs them first, from +0. Where each alpha value
// a column block reads is 1.0, that head of the chain depends only on the
// weights and the padding: it is the chain over an all-ones plane, which
// alphaSeeds holds. Such a block starts its rows from the seeds and runs
// only the other planes' taps with store off, so each chain continues where
// the seed left it — bit for bit the unfolded product, on every tier, since
// edge tiles continue C's chains as full tiles do. The choice is made per
// image and column block, by the image alone.
type alphaFold struct {
	s     ConvSpec
	alpha []float32 // the alpha taps' weights: OutC rows of KH·KW
	// rest is the micro-panels of the other planes' weights — columns
	// [0, K−KH·KW) in stored order — for the tier the weights were packed
	// for.
	rest  []float32
	seeds atomic.Pointer[alphaSeeds] // for the image size last run
}

// newAlphaFold builds the fold of the weights w of a convolution under s,
// for tier t.
func newAlphaFold(w []float32, s ConvSpec, t gemmTierT) *alphaFold {
	m, khw, k := s.OutC, s.KH*s.KW, s.InC*s.KH*s.KW
	f := &alphaFold{s: s, alpha: make([]float32, m*khw), rest: make([]float32, t.panelsLen(m, k-khw))}
	for i := 0; i < m; i++ {
		copy(f.alpha[i*khw:(i+1)*khw], w[i*k+k-khw:])
	}
	packPanels(f.rest, w, k, false, m, k-khw, t)
	return f
}

// seedsFor returns the seeds for v's image size, building them when the
// size changed. Goroutines racing on a new size each build equal seeds.
func (f *alphaFold) seedsFor(v *convView[float32]) *alphaSeeds {
	if sd := f.seeds.Load(); sd != nil && sd.h == v.h && sd.w == v.w {
		return sd
	}
	sd := newAlphaSeeds(f.alpha, f.s, v.h, v.w)
	f.seeds.Store(sd)
	return sd
}

// foldCols is how many columns of a folded block run at a time: the
// seeds' copy and the kernels that load it then stay in L2 (512 columns of
// the paper net's stem are 196 KB of C beside 300 KB of packed B). It is a
// multiple of every FP32 tier's nr.
const foldCols = 512

// product runs columns [jc, jc+nc) of the convolution's product over b's
// view, whose alpha is opaque there, into the m = OutC rows of c (ldc
// apart, from column cj on) on tier t, bp holding the packed B block: each
// chain starts from its seed and runs the other planes' taps, in stored
// order, with the kernels' store off.
func (f *alphaFold) product(sd *alphaSeeds, b gemmB, t gemmTierT, bp, c []float32, cj, ldc, jc, nc int) {
	b.order = kOrder{}
	k := (f.s.InC - 1) * f.s.KH * f.s.KW
	for o := 0; o < nc; o += foldCols {
		n := min(foldCols, nc-o)
		sd.prefill(c, cj+o, ldc, jc+o, n)
		blocked[float32, float32](&b, t, f.rest, bp, c, cj+o, ldc, f.s.OutC, k, jc+o, n, true)
	}
}

// alphaSeeds is an alpha fold's prefix table for h×w images: for each class
// of output rows, OutC rows of ow values, each what its output's chain holds
// after the alpha taps of an all-ones plane with the convolution's padding.
// Rows [0, top) reach into the top padding and rows [bottom, oh) into the
// bottom padding, a class each; the rows between read whole windows and
// share one class. Across a row, columns take the value their own window
// gives.
type alphaSeeds struct {
	h, w        int
	m, ow       int
	top, bottom int
	rows        []float32 // (top + 1 + oh − bottom) × m × ow
}

func newAlphaSeeds(aw []float32, s ConvSpec, h, w int) *alphaSeeds {
	oh, ow := s.OutSize(h, w)
	top := min((s.PadH+s.StrideH-1)/s.StrideH, oh)
	bottom := 0
	if span := h + s.PadH - s.KH; span >= 0 {
		bottom = min(span/s.StrideH+1, oh)
	}
	bottom = max(bottom, top)
	m, khw := s.OutC, s.KH*s.KW
	sd := &alphaSeeds{h: h, w: w, m: m, ow: ow, top: top, bottom: bottom, rows: make([]float32, (top+1+oh-bottom)*m*ow)}
	for cls := 0; cls < top+1+oh-bottom; cls++ {
		oy := cls // a class's first row: the interior's is top
		if cls > top {
			oy = bottom + cls - top - 1
		}
		ky0, ky1 := window(oy, s.StrideH, s.PadH, s.KH, h)
		rows := sd.rows[cls*m*ow : (cls+1)*m*ow]
		px0, px1 := -1, -1
		for ox := 0; ox < ow; ox++ {
			kx0, kx1 := window(ox, s.StrideW, s.PadW, s.KW, w)
			if kx0 == px0 && kx1 == px1 {
				for i := 0; i < m; i++ {
					rows[i*ow+ox] = rows[i*ow+ox-1]
				}
				continue
			}
			px0, px1 = kx0, kx1
			for i := 0; i < m; i++ {
				// The kernel's chain: fma(w, b, acc) from +0 in k order, b
				// the plane's 1.0 inside the image and the border's 0
				// outside it. w·b is exact, so one add rounds it as the
				// FMA does — NaN or infinite weights times a border 0
				// included.
				var acc float32
				for t, wv := range aw[i*khw : (i+1)*khw] {
					var b float32
					if ky, kx := t/s.KW, t%s.KW; ky >= ky0 && ky < ky1 && kx >= kx0 && kx < kx1 {
						b = 1
					}
					acc += wv * b
				}
				rows[i*ow+ox] = acc
			}
		}
	}
	return sd
}

// window returns the taps [k0, k1) of the size-k window at output position
// o (stride, pad) that land inside an axis of size elements; k1 ≤ k0 when
// none do.
func window(o, stride, pad, k, size int) (k0, k1 int) {
	start := o*stride - pad
	return max(-start, 0), min(size-start, k)
}

// class returns the seed rows, m × ow, of output row oy.
func (sd *alphaSeeds) class(oy int) []float32 {
	cls := sd.top
	switch {
	case oy < sd.top:
		cls = oy
	case oy >= sd.bottom:
		cls = sd.top + 1 + oy - sd.bottom
	}
	return sd.rows[cls*sd.m*sd.ow : (cls+1)*sd.m*sd.ow]
}

// opaque reports whether every alpha value that output columns
// [jc, jc+nc) of v's image read is 1.0 — what ToTensorInto makes of 255.
// It tests whole input rows, those the columns' windows span.
func (sd *alphaSeeds) opaque(v *convView[float32], jc, nc int) bool {
	s := v.s
	iy0 := max(jc/v.ow*s.StrideH-s.PadH, 0)
	iy1 := max(min((jc+nc-1)/v.ow*s.StrideH-s.PadH+s.KH, v.h), iy0)
	for _, a := range v.img[(s.InC-1)*v.h*v.w:][iy0*v.w : iy1*v.w] {
		if a != 1 {
			return false
		}
	}
	return true
}

// prefill writes the seeds of output columns [jc, jc+nc) into the m rows of
// c, ldc apart, from column cj on.
func (sd *alphaSeeds) prefill(c []float32, cj, ldc, jc, nc int) {
	for j := jc; j < jc+nc; {
		oy, ox := j/sd.ow, j%sd.ow
		seg := min(sd.ow-ox, jc+nc-j)
		rows := sd.class(oy)
		for i := 0; i < sd.m; i++ {
			copy(c[i*ldc+cj+j-jc:][:seg], rows[i*sd.ow+ox:])
		}
		j += seg
	}
}
