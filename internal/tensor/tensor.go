// Package tensor implements dense float32 tensors and the linear-algebra
// primitives the DNN substrate is built on: matrix multiplication, im2col
// lowering for convolutions, and simple element-wise kernels.
//
// Tensors are row-major. FromSlice wraps a caller's slice without copying;
// every other constructor and operation returns a tensor with storage of its
// own. All operations are deterministic.
package tensor

import "fmt"

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative or the shape is empty.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data into a tensor of the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.shape[i]))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// AddInPlace adds o element-wise into t. Shapes must match exactly.
func (t *Tensor) AddInPlace(o *Tensor) {
	t.mustSameSize(o, "AddInPlace")
	for i, v := range o.data {
		t.data[i] += v
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AxpyInPlace computes t += a*o element-wise.
func (t *Tensor) AxpyInPlace(a float32, o *Tensor) {
	t.mustSameSize(o, "AxpyInPlace")
	for i, v := range o.data {
		t.data[i] += a * v
	}
}

func (t *Tensor) mustSameSize(o *Tensor, op string) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float32 {
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Tensor) Min() float32 {
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Equal reports whether t and o have identical shape and every element
// pair differs by at most eps.
func (t *Tensor) Equal(o *Tensor, eps float32) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	for i := range t.data {
		d := t.data[i] - o.data[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}

// String renders the shape and a bounded preview of the data.
func (t *Tensor) String() string {
	const preview = 8
	if len(t.data) <= preview {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v%v...", t.shape, t.data[:preview])
}
