// Package gradcam implements Grad-CAM (Selvaraju et al.), the salience
// mapping the paper uses in §5.6 / Fig. 4 to show which image regions drive
// the ad verdict: the class score's gradient with respect to a convolutional
// layer's activations is channel-averaged into weights, the weighted
// activation sum is rectified, and the result is upsampled onto the input.
package gradcam

import (
	"fmt"
	"math"
	"strings"

	"percival/internal/nn"
	"percival/internal/tensor"
)

// Heatmap is a salience map over the network input, values in [0,1].
type Heatmap struct {
	W, H int
	Data []float64
}

// At returns the salience at (x, y).
func (h *Heatmap) At(x, y int) float64 { return h.Data[y*h.W+x] }

// Compute runs Grad-CAM for the given class on a single input ([1,C,H,W])
// at the layer with index targetLayer in net.Layers. It uses training-mode
// forward/backward machinery, so it must not run concurrently with training.
func Compute(net *nn.Sequential, x *tensor.Tensor, targetLayer, class int) (*Heatmap, error) {
	if targetLayer < 0 || targetLayer >= len(net.Layers) {
		return nil, fmt.Errorf("gradcam: layer %d out of range (%d layers)", targetLayer, len(net.Layers))
	}
	if x.Shape[0] != 1 {
		return nil, fmt.Errorf("gradcam: single-sample input required, got batch %d", x.Shape[0])
	}
	// forward, capturing the target layer's activation
	var act *tensor.Tensor
	h := x
	for i, l := range net.Layers {
		h = l.Forward(h, true)
		if i == targetLayer {
			if len(h.Shape) != 4 {
				return nil, fmt.Errorf("gradcam: layer %d (%s) output is not spatial", i, l.Name())
			}
			act = h.Clone() // later ReLU layers may modify h in place
		}
	}
	if class < 0 || class >= h.Shape[1] {
		return nil, fmt.Errorf("gradcam: class %d out of range", class)
	}
	// backward from the class logit down to (but not through) targetLayer:
	// afterwards grad holds d(score)/d(act)
	grad := tensor.New(h.Shape...)
	grad.Data[class] = 1
	for i := len(net.Layers) - 1; i > targetLayer; i-- {
		grad = net.Layers[i].Backward(grad)
	}
	c, ah, aw := act.Shape[1], act.Shape[2], act.Shape[3]
	plane := ah * aw
	weights := make([]float64, c)
	for ch := 0; ch < c; ch++ {
		var s float64
		for i := 0; i < plane; i++ {
			s += float64(grad.Data[ch*plane+i])
		}
		weights[ch] = s / float64(plane)
	}
	cam := make([]float64, plane)
	var maxV float64
	for i := 0; i < plane; i++ {
		var v float64
		for ch := 0; ch < c; ch++ {
			v += weights[ch] * float64(act.Data[ch*plane+i])
		}
		if v < 0 {
			v = 0 // ReLU
		}
		cam[i] = v
		if v > maxV {
			maxV = v
		}
	}
	if maxV > 0 {
		for i := range cam {
			cam[i] /= maxV
		}
	}
	// drain remaining training state
	for i := targetLayer; i >= 0; i-- {
		grad = net.Layers[i].Backward(grad)
	}
	return &Heatmap{W: aw, H: ah, Data: cam}, nil
}

// Upsample bilinearly resizes the heatmap to w×h (typically the input
// resolution for overlay).
func (h *Heatmap) Upsample(w, ht int) *Heatmap {
	out := &Heatmap{W: w, H: ht, Data: make([]float64, w*ht)}
	for y := 0; y < ht; y++ {
		sy := float64(y) * float64(h.H-1) / math.Max(float64(ht-1), 1)
		y0 := int(sy)
		y1 := y0 + 1
		if y1 >= h.H {
			y1 = h.H - 1
		}
		fy := sy - float64(y0)
		for x := 0; x < w; x++ {
			sx := float64(x) * float64(h.W-1) / math.Max(float64(w-1), 1)
			x0 := int(sx)
			x1 := x0 + 1
			if x1 >= h.W {
				x1 = h.W - 1
			}
			fx := sx - float64(x0)
			top := h.At(x0, y0)*(1-fx) + h.At(x1, y0)*fx
			bot := h.At(x0, y1)*(1-fx) + h.At(x1, y1)*fx
			out.Data[y*w+x] = top*(1-fy) + bot*fy
		}
	}
	return out
}

// ASCII renders the heatmap as a text intensity plot (for terminal
// inspection of Fig. 4-style output).
func (h *Heatmap) ASCII() string {
	ramp := " .:-=+*#%@"
	var sb strings.Builder
	for y := 0; y < h.H; y++ {
		for x := 0; x < h.W; x++ {
			v := h.At(x, y)
			idx := int(v * float64(len(ramp)-1))
			sb.WriteByte(ramp[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// MeanSalience returns the average salience inside the rectangle
// [x0,x1)×[y0,y1) — used by tests to verify the map attends to ad cues.
func (h *Heatmap) MeanSalience(x0, y0, x1, y1 int) float64 {
	var s float64
	n := 0
	for y := y0; y < y1 && y < h.H; y++ {
		for x := x0; x < x1 && x < h.W; x++ {
			if x < 0 || y < 0 {
				continue
			}
			s += h.At(x, y)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
