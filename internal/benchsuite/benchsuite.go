// Package benchsuite holds the single definition of the repository's
// headline benchmarks, shared by the `go test -bench` wrappers in
// bench_test.go and by cmd/percival-bench (which snapshots them into
// BENCH_<n>.json via testing.Benchmark). Keeping one definition means the
// perf trajectory and the ad-hoc benchmark runs can never silently diverge.
package benchsuite

import (
	"math/rand"
	"testing"

	"percival/internal/dataset"
	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/tensor"
)

// PaperNet builds the paper-scale PERCIVAL fork with the deterministic
// warm-start initialization (weights are random but fixed; benchmark
// latency does not depend on training).
func PaperNet() *nn.Sequential {
	net, err := squeezenet.Build(squeezenet.PaperConfig())
	if err != nil {
		panic(err)
	}
	squeezenet.PretrainedInit(net, 1)
	return net
}

// PaperQuantNet builds and calibrates the paper-scale INT8 engine shared by
// the Int8 benchmarks.
func PaperQuantNet() *nn.QuantizedSequential {
	net := PaperNet()
	rng := rand.New(rand.NewSource(2))
	calib := make([]*tensor.Tensor, 2)
	for i := range calib {
		x := tensor.New(1, 4, 224, 224)
		for j := range x.Data {
			x.Data[j] = float32(rng.Float64())
		}
		calib[i] = x
	}
	qnet, err := nn.Quantize(net, calib)
	if err != nil {
		panic(err)
	}
	return qnet
}

// paperFrames returns n seeded frames at paper resolution, uniform in [0,1)
// like a decoded bitmap. The inference benchmarks time these, not the
// all-zero tensor.New leaves: zero activations never mispredict a compare and
// all take one side of every ReLU, which once hid a scalar loop's real cost.
func paperFrames(n int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(n, 4, 224, 224)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	return x
}

// InferSingle measures raw single-frame FP32 inference latency at paper
// resolution on the arena fast path: the per-frame cost PERCIVAL adds to
// the rendering critical path. Steady state should report 0 allocs/op.
func InferSingle(b *testing.B) {
	net := PaperNet()
	x := paperFrames(1)
	a := tensor.NewArena()
	a.PutTensor(nn.PredictArena(net, x, a)) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.PutTensor(nn.PredictArena(net, x, a))
	}
}

// InferSingleInt8 measures single-frame inference latency on the INT8
// quantized engine — the INT8 counterpart of InferSingle.
func InferSingleInt8(b *testing.B) {
	qnet := PaperQuantNet()
	x := paperFrames(1)
	a := tensor.NewArena()
	a.PutTensor(qnet.PredictArena(x, a))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.PutTensor(qnet.PredictArena(x, a))
	}
}

// InferBatch measures batched FP32 throughput (8 frames per forward pass),
// the ClassifyBatch workload.
func InferBatch(b *testing.B) {
	net := PaperNet()
	x := paperFrames(8)
	a := tensor.NewArena()
	a.PutTensor(nn.PredictArena(net, x, a))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.PutTensor(nn.PredictArena(net, x, a))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8)/1e6, "ms/frame")
}

// InferBatchInt8 measures batched quantized throughput (8 frames per
// forward pass).
func InferBatchInt8(b *testing.B) {
	qnet := PaperQuantNet()
	x := paperFrames(8)
	a := tensor.NewArena()
	a.PutTensor(qnet.PredictArena(x, a))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.PutTensor(qnet.PredictArena(x, a))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8)/1e6, "ms/frame")
}

// GemmStem measures the paper-scale stem GEMM (96×196×12544) in FP32.
func GemmStem(b *testing.B) {
	const m, k, n = 96, 196, 12544
	rng := rand.New(rand.NewSource(3))
	a := make([]float32, m*k)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	x := make([]float32, k*n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	c := make([]float32, m*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(a, x, c, m, k, n)
	}
}

// QGemmStem measures the same stem product through the quantized
// u8×s8→int32 GEMM.
func QGemmStem(b *testing.B) {
	const m, k, n = 96, 196, 12544
	rng := rand.New(rand.NewSource(4))
	a := make([]int8, m*k)
	for i := range a {
		a[i] = int8(rng.Intn(255) - 127)
	}
	x := make([]uint8, k*n)
	for i := range x {
		x[i] = uint8(rng.Intn(tensor.QMaxU8 + 1))
	}
	c := make([]int32, m*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.QGemm(a, x, c, m, k, n)
	}
}

// Resize measures the per-frame bilinear scaling cost on the classification
// pre-processing path (typical decoded frame → 224×224).
func Resize(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	src := imaging.NewBitmap(640, 480)
	for i := range src.Pix {
		src.Pix[i] = uint8(rng.Intn(256))
	}
	dst := imaging.NewBitmap(224, 224)
	imaging.ResizeBilinearInto(src, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imaging.ResizeBilinearInto(src, dst)
	}
}

// TrainingEpoch measures one SGD epoch at the reduced harness scale (the
// §4.3 training recipe on this engine).
func TrainingEpoch(b *testing.B) {
	arch := squeezenet.SmallConfig(32)
	ds := dataset.Generate(7, synth.CrawlStyle(), 96)
	cfg := dataset.FastTraining(arch, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Train(cfg, ds); err != nil {
			b.Fatal(err)
		}
	}
}
