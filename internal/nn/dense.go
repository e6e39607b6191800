package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully-connected layer computing y = act(x·W + b), the "weighted
// accumulation + activation function" neuron of Fig. 2a. With Skip set the
// layer is residual — y = act(x·W + b) + x — the skipped connection arriving
// through the RNA input FIFO as §4.3 describes for ResNet support; Skip
// requires in == out.
type Dense struct {
	name string
	in   int
	out  int
	W    *Param // [in, out]
	B    *Param // [1, out]
	Act  Activation
	Skip bool

	lastX    *tensor.Tensor // cached input
	lastPre  *tensor.Tensor // pre-activation x·W+b
	lastPost *tensor.Tensor // activation output
}

// NewDense creates a fully-connected layer with He-scaled uniform
// initialization drawn from rng. A nil rng leaves the weights zero — for
// loaders that overwrite every parameter anyway.
func NewDense(name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense dims %d→%d", in, out))
	}
	w := tensor.New(in, out)
	if rng != nil {
		bound := float32(math.Sqrt(6.0 / float64(in)))
		for i := range w.Data() {
			w.Data()[i] = (rng.Float32()*2 - 1) * bound
		}
	}
	return &Dense{
		name: name, in: in, out: out,
		W:   newParam(name+".W", w),
		B:   newParam(name+".b", tensor.New(1, out)),
		Act: act,
	}
}

func (d *Dense) Name() string     { return d.name }
func (d *Dense) InSize() int      { return d.in }
func (d *Dense) OutSize() int     { return d.out }
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward computes the layer output for a [batch, in] input. Only a training
// pass caches what Backward needs; an inference pass writes no layer state.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, pre, post := d.forward(x)
	if train {
		d.lastX, d.lastPre, d.lastPost = x, pre, post
	}
	return out
}

// forward returns the layer output, the pre-activations x·W+b and the
// activations, reading the layer's parameters only.
func (d *Dense) forward(x *tensor.Tensor) (out, pre, post *tensor.Tensor) {
	if x.Dim(1) != d.in {
		panic(fmt.Sprintf("nn: %s expects %d features, got %d", d.name, d.in, x.Dim(1)))
	}
	pre = tensor.MatMul(x, d.W.Value)
	batch := pre.Dim(0)
	bias := d.B.Value.Data()
	for i := 0; i < batch; i++ {
		row := pre.Data()[i*d.out : (i+1)*d.out]
		for j := range row {
			row[j] += bias[j]
		}
	}
	post = tensor.New(batch, d.out)
	for i, v := range pre.Data() {
		post.Data()[i] = float32(d.Act.Eval(float64(v)))
	}
	if d.Skip {
		out = post.Clone()
		out.AddInPlace(x)
		return out, pre, post
	}
	return post, pre, post
}

// Backward propagates grad (∂L/∂y, [batch, out]) and accumulates ∂L/∂W, ∂L/∂b.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastX == nil {
		panic("nn: Backward before Forward(train=true) on " + d.name)
	}
	batch := grad.Dim(0)
	// Gradient through the activation.
	gPre := tensor.New(batch, d.out)
	for i, g := range grad.Data() {
		x := float64(d.lastPre.Data()[i])
		y := float64(d.lastPost.Data()[i])
		gPre.Data()[i] = g * float32(d.Act.Grad(x, y))
	}
	// dW = xᵀ · gPre, db = column-sum(gPre), dx = gPre · Wᵀ.
	d.W.Grad.AddInPlace(tensor.MatMulTransA(d.lastX, gPre))
	bg := d.B.Grad.Data()
	for i := 0; i < batch; i++ {
		row := gPre.Data()[i*d.out : (i+1)*d.out]
		for j, v := range row {
			bg[j] += v
		}
	}
	dx := tensor.MatMulTransB(gPre, d.W.Value)
	if d.Skip {
		dx.AddInPlace(grad) // identity path
	}
	return dx
}

// NewResidualDense creates a fully-connected residual layer,
// y = act(x·W + b) + x; size must equal for input and output.
func NewResidualDense(name string, size int, act Activation, rng *rand.Rand) *Dense {
	d := NewDense(name, size, size, act, rng)
	d.Skip = true
	return d
}
