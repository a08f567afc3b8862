package squeezenet

import (
	"math"
	"math/rand"
	"testing"

	"percival/internal/nn"
	"percival/internal/tensor"
)

func TestPaperConfigValidatesAndBuilds(t *testing.T) {
	cfg := PaperConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	net, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := nn.ParamCount(net)
	size := nn.SizeBytes(net)
	// Paper: fork is "less than 2 MB" (Fig. 8 reports 1.9 MB).
	if size >= 2<<20 {
		t.Fatalf("paper model size %d bytes, want < 2 MiB", size)
	}
	if size < 1<<20 {
		t.Fatalf("paper model size %d bytes implausibly small (<1 MiB); params=%d", size, params)
	}
	t.Logf("percival fork: %d params, %.2f MB", params, float64(size)/(1<<20))
}

func TestPaperForwardShape(t *testing.T) {
	cfg := PaperConfig()
	net, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	PretrainedInit(net, 1)
	x := tensor.New(1, 4, 224, 224)
	y := net.Forward(x, false)
	if y.Shape[0] != 1 || y.Shape[1] != 2 {
		t.Fatalf("output shape %v, want [1 2]", y.Shape)
	}
}

func TestSmallConfigForwardShape(t *testing.T) {
	for _, res := range []int{16, 32, 48, 64} {
		cfg := SmallConfig(res)
		net, err := Build(cfg)
		if err != nil {
			t.Fatalf("res %d: %v", res, err)
		}
		PretrainedInit(net, 1)
		x := tensor.New(2, 4, res, res)
		y := net.Forward(x, false)
		if y.Shape[0] != 2 || y.Shape[1] != 2 {
			t.Fatalf("res %d: output shape %v", res, y.Shape)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cfg := PaperConfig()
	cfg.Fires = cfg.Fires[:3] // odd count
	if err := cfg.Validate(); err == nil {
		t.Fatal("odd fire count should fail validation")
	}
	cfg = PaperConfig()
	cfg.Classes = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("1 class should fail validation")
	}
	cfg = SmallConfig(16)
	cfg.InputRes = 4 // collapses under three pools
	if err := cfg.Validate(); err == nil {
		t.Fatal("tiny input should fail validation")
	}
	if _, err := Build(cfg); err == nil {
		t.Fatal("Build must propagate validation errors")
	}
}

func TestSmallConfigClampsResolution(t *testing.T) {
	cfg := SmallConfig(2)
	if cfg.InputRes != 16 {
		t.Fatalf("InputRes = %d, want clamped to 16", cfg.InputRes)
	}
}

func TestPretrainedInitIsDeterministicAndShared(t *testing.T) {
	cfg := SmallConfig(32)
	a, _ := Build(cfg)
	b, _ := Build(cfg)
	PretrainedInit(a, 111)
	PretrainedInit(b, 222) // different training seed
	pa, pb := a.Params(), b.Params()
	sharedSame, taskDiffer := true, false
	for i := range pa {
		base := baseName(pa[i].Name)
		isPre := base == "conv1" || base == "fire1" || base == "fire2" || base == "fire3" || base == "fire4"
		equal := true
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				equal = false
				break
			}
		}
		if isPre && !equal {
			sharedSame = false
		}
		if !isPre && len(pa[i].W.Shape) > 1 && !equal {
			taskDiffer = true
		}
	}
	if !sharedSame {
		t.Fatal("pretrained blocks must be identical across training seeds")
	}
	if !taskDiffer {
		t.Fatal("task-specific blocks must differ across training seeds")
	}
}

func TestOriginalSqueezeNetSize(t *testing.T) {
	net := BuildOriginal(OriginalSqueezeNet())
	size := nn.SizeBytes(net)
	mb := float64(size) / (1 << 20)
	// Iandola et al.: ~1.25M params, ~4.8 MB.
	if mb < 4 || mb > 6 {
		t.Fatalf("original SqueezeNet size %.2f MB, want ~4.8", mb)
	}
	t.Logf("original squeezenet: %d params, %.2f MB", nn.ParamCount(net), mb)
}

func TestForkSmallerThanOriginal(t *testing.T) {
	fork, _ := Build(PaperConfig())
	orig := BuildOriginal(OriginalSqueezeNet())
	if nn.SizeBytes(fork) >= nn.SizeBytes(orig) {
		t.Fatal("fork must be smaller than original SqueezeNet")
	}
}

func TestOriginalForwardShape(t *testing.T) {
	cfg := OriginalConfig{InputRes: 224, InChannels: 3, Classes: 10}
	net := BuildOriginal(cfg)
	rng := rand.New(rand.NewSource(1))
	nn.InitHe(net, rng)
	x := tensor.New(1, 3, 224, 224)
	y := net.Forward(x, false)
	if y.Shape[1] != 10 {
		t.Fatalf("output shape %v", y.Shape)
	}
}

func TestSmallNetTrainsOnSeparableTask(t *testing.T) {
	// End-to-end: the real PERCIVAL topology (at 16px) must learn a simple
	// visual discrimination within a few hundred SGD steps.
	cfg := SmallConfig(16)
	cfg.Dropout = 0 // keep the toy task noise-free
	net, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	PretrainedInit(net, 42)
	opt := nn.NewSGD(net.Params(), 0.02, 0.9, 1e-4)
	rng := rand.New(rand.NewSource(7))

	makeBatch := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 4, 16, 16)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			labels[i] = rng.Intn(2)
			for c := 0; c < 4; c++ {
				for yy := 0; yy < 16; yy++ {
					for xx := 0; xx < 16; xx++ {
						v := float32(rng.NormFloat64() * 0.15)
						// class 1: bright border frame (an "ad-like" cue)
						if labels[i] == 1 && (yy < 2 || yy >= 14 || xx < 2 || xx >= 14) {
							v += 1
						}
						x.Data[((i*4+c)*16+yy)*16+xx] = v
					}
				}
			}
		}
		return x, labels
	}

	var acc float64
	for step := 0; step < 150; step++ {
		x, labels := makeBatch(16)
		_, acc = nn.TrainStep(net, opt, x, labels)
	}
	if acc < 0.85 {
		t.Fatalf("percival topology failed to learn separable task: acc=%v", acc)
	}
	if math.IsNaN(acc) {
		t.Fatal("training diverged to NaN")
	}
}
