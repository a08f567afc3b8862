package nn

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"percival/internal/tensor"
)

// inferBits runs one arena forward pass and returns the logits' bit patterns.
func inferBits(net *Sequential, x *tensor.Tensor) []uint32 {
	a := tensor.NewArena()
	y := net.ForwardInfer(x, a)
	bits := make([]uint32, len(y.Data))
	for i, v := range y.Data {
		bits[i] = math.Float32bits(v)
	}
	return bits
}

// freshCopy builds a new test net and copies net's weights into it by hand:
// a model that has never inferred, so it packs from what it holds now.
func freshCopy(t *testing.T, net *Sequential) *Sequential {
	t.Helper()
	fresh := buildTestNet(t)
	src, dst := net.Params(), fresh.Params()
	for i := range src {
		copy(dst[i].W.Data, src[i].W.Data)
		dst[i].Changed()
	}
	return fresh
}

// TestPackedWeightsNeverStale checks the generation protocol that keeps the
// inference path's packed weights in step with the model: after each in-tree
// weight writer — an optimizer step, both initializers, Load — the next
// ForwardInfer on a net that had already packed must equal, bit for bit, a
// freshly built net holding the same weights.
func TestPackedWeightsNeverStale(t *testing.T) {
	net := buildTestNet(t)
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(3, 3, 12, 12)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	before := inferBits(net, x) // packs every convolution
	var saved bytes.Buffer
	other := buildTestNet(t)
	InitHe(other, rand.New(rand.NewSource(12)))
	if err := Save(&saved, other); err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(net.Params(), 0.05, 0.9, 1e-3)
	writers := []struct {
		name  string
		write func()
	}{
		{"SGD.Step", func() {
			for _, p := range net.Params() {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = float32(rng.NormFloat64())
				}
			}
			opt.Step()
		}},
		{"InitXavier", func() { InitXavier(net, rng) }},
		{"InitHe", func() { InitHe(net, rng) }},
		{"Load", func() {
			if err := Load(bytes.NewReader(saved.Bytes()), net); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, w := range writers {
		w.write()
		got, want := inferBits(net, x), inferBits(freshCopy(t, net), x)
		same := true
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("after %s: logit %d = %#x, a fresh net with the same weights gives %#x", w.name, i, got[i], want[i])
			}
			same = same && got[i] == before[i]
		}
		if same {
			t.Errorf("after %s: logits did not move at all — the writer changed nothing the forward pass sees", w.name)
		}
		before = got
	}
}

// TestPackedWeightsConcurrentFirstUse has several goroutines run their first
// PredictArena on one shared, never-yet-packed net at once (run under -race):
// they race to pack each layer, and all must read the same scores a net
// packed in peace gives.
func TestPackedWeightsConcurrentFirstUse(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	x := tensor.New(2, 3, 12, 12)
	for i := range x.Data {
		x.Data[i] = float32(i%17)/17 - 0.3
	}
	quiet := buildTestNet(t)
	a := tensor.NewArena()
	want := append([]float32(nil), PredictArena(quiet, x, a).Data...)
	for round := 0; round < 5; round++ {
		shared := buildTestNet(t) // same seed, same weights, nothing packed
		const workers = 8
		got := make([][]float32, workers)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < workers; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				a := tensor.NewArena()
				start.Wait()
				got[g] = append([]float32(nil), PredictArena(shared, x, a).Data...)
			}()
		}
		start.Done()
		done.Wait()
		for g, probs := range got {
			for i := range want {
				if math.Float32bits(probs[i]) != math.Float32bits(want[i]) {
					t.Fatalf("round %d worker %d: probs[%d]=%v, want %v", round, g, i, probs[i], want[i])
				}
			}
		}
	}
}

// TestLoadLeavesModelUntouchedOnError checks Load commits nothing from a file
// it ends up rejecting: cut short inside a later parameter, or mismatched
// after an earlier one parsed, the model keeps every weight it had.
func TestLoadLeavesModelUntouchedOnError(t *testing.T) {
	src := buildTestNet(t)
	InitHe(src, rand.New(rand.NewSource(13)))
	var good bytes.Buffer
	if err := Save(&good, src); err != nil {
		t.Fatal(err)
	}
	renamed := append([]byte(nil), good.Bytes()...)
	last := src.Params()[len(src.Params())-1].Name
	at := bytes.LastIndex(renamed, []byte(last))
	renamed[at] ^= 0x20 // the last parameter's name no longer matches
	for name, file := range map[string][]byte{
		"truncated":  good.Bytes()[:good.Len()*2/3],
		"mismatched": renamed,
	} {
		net := buildTestNet(t)
		var before [][]float32
		for _, p := range net.Params() {
			before = append(before, append([]float32(nil), p.W.Data...))
		}
		if err := Load(bytes.NewReader(file), net); err == nil {
			t.Fatalf("%s file: expected an error", name)
		}
		for i, p := range net.Params() {
			for j, v := range p.W.Data {
				if math.Float32bits(v) != math.Float32bits(before[i][j]) {
					t.Fatalf("%s file: %s[%d] changed from %v to %v", name, p.Name, j, before[i][j], v)
				}
			}
		}
	}
}

// FuzzLoad feeds Load arbitrary bytes: it must return (an error, nearly
// always) without panicking or allocating by a size the file chose, and a
// rejected file must leave the model as it was.
func FuzzLoad(f *testing.F) {
	newNet := func() *Sequential {
		return NewSequential(
			NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
			NewConv2D("c2", tensor.ConvSpec{InC: 2, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
		)
	}
	seedNet := newNet()
	InitHe(seedNet, rand.New(rand.NewSource(14)))
	var full, half bytes.Buffer
	if err := Save(&full, seedNet); err != nil {
		f.Fatal(err)
	}
	if err := SaveCompressed(&half, seedNet); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	f.Add(half.Bytes())
	f.Add(full.Bytes()[:full.Len()/2])
	f.Add([]byte("PCVL\x01\x00\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		net := newNet()
		for _, p := range net.Params() {
			for i := range p.W.Data {
				p.W.Data[i] = 0.5
			}
		}
		if err := Load(bytes.NewReader(data), net); err == nil {
			return
		}
		for _, p := range net.Params() {
			for j, v := range p.W.Data {
				if v != 0.5 {
					t.Fatalf("rejected file changed %s[%d] to %v", p.Name, j, v)
				}
			}
		}
	})
}
