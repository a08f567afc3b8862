package squeezenet

import (
	"fmt"

	"percival/internal/nn"
	"percival/internal/tensor"
)

// Quantize builds the post-training INT8 inference engine for a trained
// PERCIVAL network at model-load time, calibrating activation ranges on the
// given input tensors. Calibration tensors must match the architecture's
// input geometry ([N, InChannels, InputRes, InputRes]); a few dozen
// representative frames is enough for stable ranges on this 2-class model.
// On the paper net at 224 px a frame costs about 13 ms of one core and no
// memory beyond the first's (one frame's activations, 6–8 MB with the
// quantized weights, whatever the count); it was 23 ms and 12 MB of garbage
// a frame while the replay ran the training-path layers. The tensors
// themselves are 0.77 MB each: a caller that can produce them one at a time
// feeds an nn.Calibrator instead (core does).
//
// The FP32 network is left untouched, so callers can keep both engines and
// gate the quantized one on an accuracy-parity check (see core.Options).
func Quantize(net *nn.Sequential, cfg Config, calib []*tensor.Tensor) (*nn.QuantizedSequential, error) {
	if len(calib) == 0 {
		return nil, fmt.Errorf("squeezenet: Quantize: empty calibration set")
	}
	for i, t := range calib {
		if len(t.Shape) != 4 || t.Shape[1] != cfg.InChannels ||
			t.Shape[2] != cfg.InputRes || t.Shape[3] != cfg.InputRes {
			return nil, fmt.Errorf("squeezenet: Quantize: calibration tensor %d has shape %v, want [N,%d,%d,%d] for %s",
				i, t.Shape, cfg.InChannels, cfg.InputRes, cfg.InputRes, cfg.Name)
		}
	}
	return nn.Quantize(net, calib)
}
