// Package tensor implements the minimal dense-tensor substrate PERCIVAL's
// neural network is built on: float32 NCHW tensors with the forward and
// backward primitives needed by a convolutional classifier (convolution via
// im2col + blocked GEMM, pooling, ReLU, softmax, fully-connected).
//
// The package is deliberately free of external dependencies; the paper's
// model runs inside a browser rendering pipeline, so the reproduction keeps
// inference self-contained and allocation-conscious.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense float32 tensor in row-major order. Convolutional data
// uses NCHW layout ([batch, channels, height, width]); matrices use [rows,
// cols]; vectors use [n].
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape covering the same data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (len %d) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddInPlace accumulates u into t element-wise. Shapes must match.
func (t *Tensor) AddInPlace(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AddInPlace length mismatch")
	}
	for i, v := range u.Data {
		t.Data[i] += v
	}
}

// String renders a compact description for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(len=%d)", t.Shape, len(t.Data))
}

// Argmax returns the index of the maximum element of a vector (rank-1 view).
func Argmax(v []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}
