package nn

import "repro/internal/tensor"

// Layer is one stage of a feed-forward network. Activations flow as
// [batch, features] tensors; layers that are spatially structured
// (convolution, pooling) carry their own geometry and interpret the feature
// axis as channel-major C×H×W.
//
// Forward(x, true) caches whatever Backward needs; Forward(x, false) writes
// no layer state, so any number of goroutines may run inference on one
// layer at once (while none trains it). Backward receives the gradient of the
// loss with respect to the output of the last training Forward and returns
// the gradient with respect to its input, accumulating parameter gradients
// into Params.
type Layer interface {
	Name() string
	// InSize and OutSize are the flattened feature counts.
	InSize() int
	OutSize() int
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
	// momentum buffer, managed by the optimizer
	velocity *tensor.Tensor
}

func newParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Probe runs l forward like Forward(x, false), writing no layer state, and
// also returns what the composer's statistics pass samples (§3.1): a compute
// layer's pre-activations, row-major (a recurrent row holds its Steps×H
// values in step order), and a recurrent layer's hidden states h_1 … h_T,
// step-major, each [batch, H]. Both are nil for the other layers.
func Probe(l Layer, x *tensor.Tensor) (out *tensor.Tensor, pre, hidden []float32) {
	switch t := l.(type) {
	case *Dense:
		o, p, _ := t.forward(x)
		return o, p.Data(), nil
	case *Conv2D:
		o, p, _, _ := t.forward(x, false)
		return o, p.Data(), nil
	case *Recurrent:
		o, p, hs := t.forward(x)
		return o, p.Data(), hs[x.Dim(0)*t.H:]
	}
	return l.Forward(x, false), nil, nil
}
