package nn

import "percival/internal/tensor"

// TrainStep runs one optimization step on a batch: forward, softmax
// cross-entropy, backward, SGD update. x is [N,C,H,W]; labels are class
// indices. Returns the batch loss and accuracy.
func TrainStep(net Layer, opt *SGD, x *tensor.Tensor, labels []int) (loss float64, acc float64) {
	opt.ZeroGrads()
	logits := net.Forward(x, true)
	probs := tensor.Softmax(logits)
	loss, dlogits := tensor.CrossEntropyLoss(probs, labels)
	net.Backward(dlogits)
	opt.Step()
	correct := 0
	n, c := probs.Shape[0], probs.Shape[1]
	for i := 0; i < n; i++ {
		if tensor.Argmax(probs.Data[i*c:(i+1)*c]) == labels[i] {
			correct++
		}
	}
	return loss, float64(correct) / float64(n)
}

// Predict runs inference and returns per-sample class probabilities ([N,C]).
// Sequential networks run their forward plan (see PredictArena) in an arena
// from tensor's pool; x is left untouched and the returned tensor is freshly
// allocated and caller-owned.
func Predict(net Layer, x *tensor.Tensor) *tensor.Tensor {
	if s, ok := net.(*Sequential); ok {
		a := tensor.GetArena()
		out := PredictArena(s, x, a).Clone()
		tensor.PutArena(a)
		return out
	}
	return tensor.Softmax(net.Forward(x, false))
}
