package nn

import (
	"math/rand"

	"percival/internal/tensor"
)

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

// PredictClasses runs inference and returns the argmax class per sample.
func PredictClasses(net Layer, x *tensor.Tensor) []int {
	probs := Predict(net, x)
	n, c := probs.Shape[0], probs.Shape[1]
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = tensor.Argmax(probs.Data[i*c : (i+1)*c])
	}
	return out
}

// Shuffle permutes parallel slices of samples and labels in lock-step using
// the supplied RNG; used between epochs.
func Shuffle(rng *rand.Rand, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		swap(i, j)
	}
}
