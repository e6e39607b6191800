package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Recurrent is a simple Elman RNN layer unrolled over a fixed number of
// steps — the recurrent layer type the RAPIDNN controller supports (§4.3).
// The input is a flattened [batch, Steps×In] sequence; each step computes
// h_t = act(x_t·Wx + h_{t−1}·Wh + b) and the layer outputs the final hidden
// state. On the accelerator the same RNA block evaluates every step, its
// input FIFO alternating between the incoming sequence and the fed-back
// hidden state.
type Recurrent struct {
	name  string
	In    int // features per step
	H     int // hidden size
	Steps int
	Wx    *Param // [In, H]
	Wh    *Param // [H, H]
	B     *Param // [1, H]
	Act   Activation

	lastX   *tensor.Tensor
	lastPre *tensor.Tensor // [batch, Steps·H], each row's steps in order
	lastH   []float32      // h_0 … h_T, step-major, batch·H values each
}

// NewRecurrent creates an RNN layer over sequences of `steps` frames with
// `in` features each. A nil rng leaves the weights zero — for loaders that
// overwrite every parameter anyway.
func NewRecurrent(name string, in, hidden, steps int, act Activation, rng *rand.Rand) *Recurrent {
	if in <= 0 || hidden <= 0 || steps <= 0 {
		panic(fmt.Sprintf("nn: invalid Recurrent dims in=%d h=%d steps=%d", in, hidden, steps))
	}
	wx := tensor.New(in, hidden)
	wh := tensor.New(hidden, hidden)
	if rng != nil {
		bx := float32(math.Sqrt(6.0 / float64(in)))
		bh := float32(math.Sqrt(6.0 / float64(hidden)))
		for i := range wx.Data() {
			wx.Data()[i] = (rng.Float32()*2 - 1) * bx
		}
		for i := range wh.Data() {
			wh.Data()[i] = (rng.Float32()*2 - 1) * bh
		}
	}
	return &Recurrent{
		name: name, In: in, H: hidden, Steps: steps,
		Wx:  newParam(name+".Wx", wx),
		Wh:  newParam(name+".Wh", wh),
		B:   newParam(name+".b", tensor.New(1, hidden)),
		Act: act,
	}
}

func (r *Recurrent) Name() string     { return r.name }
func (r *Recurrent) InSize() int      { return r.In * r.Steps }
func (r *Recurrent) OutSize() int     { return r.H }
func (r *Recurrent) Params() []*Param { return []*Param{r.Wx, r.Wh, r.B} }

// Forward unrolls the recurrence over the sequence and returns the final
// hidden state. Only a training pass caches what Backward needs; an inference
// pass writes no layer state.
func (r *Recurrent) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, pre, hs := r.forward(x)
	if train {
		r.lastX, r.lastPre, r.lastH = x, pre, hs
	}
	return out
}

// forward unrolls the recurrence, reading the layer's parameters only. It
// returns the final hidden state, the pre-activations as one [batch, Steps·H]
// tensor whose rows hold their steps in order, and the hidden states
// h_0 … h_T laid out step-major.
func (r *Recurrent) forward(x *tensor.Tensor) (out, pre *tensor.Tensor, hs []float32) {
	if x.Dim(1) != r.InSize() {
		panic(fmt.Sprintf("nn: %s expects %d features, got %d", r.name, r.InSize(), x.Dim(1)))
	}
	batch := x.Dim(0)
	pre = tensor.New(batch, r.Steps*r.H)
	hs = make([]float32, (r.Steps+1)*batch*r.H)
	bias := r.B.Value.Data()
	for t := 0; t < r.Steps; t++ {
		acc := tensor.MatMul(r.stepInput(x, t), r.Wx.Value)
		acc.AddInPlace(tensor.MatMul(r.state(hs, t, batch), r.Wh.Value))
		next := r.state(hs, t+1, batch).Data()
		for i := 0; i < batch; i++ {
			row := pre.Data()[(i*r.Steps+t)*r.H : (i*r.Steps+t+1)*r.H]
			for j := range row {
				row[j] = acc.Data()[i*r.H+j] + bias[j]
				next[i*r.H+j] = float32(r.Act.Eval(float64(row[j])))
			}
		}
	}
	return r.state(hs, r.Steps, batch), pre, hs
}

// state views hidden state h_t of a forward's hs as a [batch, H] tensor.
func (r *Recurrent) state(hs []float32, t, batch int) *tensor.Tensor {
	n := batch * r.H
	return tensor.FromSlice(hs[t*n:(t+1)*n], batch, r.H)
}

// stepInput slices step t's frame out of the flattened sequence.
func (r *Recurrent) stepInput(x *tensor.Tensor, t int) *tensor.Tensor {
	batch := x.Dim(0)
	xt := tensor.New(batch, r.In)
	for i := 0; i < batch; i++ {
		copy(xt.Data()[i*r.In:(i+1)*r.In], x.Data()[i*r.InSize()+t*r.In:i*r.InSize()+(t+1)*r.In])
	}
	return xt
}

// Backward runs truncated-free BPTT through all unrolled steps.
func (r *Recurrent) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastPre == nil {
		panic("nn: Backward before Forward(train=true) on " + r.name)
	}
	batch := grad.Dim(0)
	dx := tensor.New(batch, r.InSize())
	gh := grad.Clone() // ∂L/∂h_t flowing backwards
	bg := r.B.Grad.Data()
	for t := r.Steps - 1; t >= 0; t-- {
		// Through the activation.
		gPre := tensor.New(batch, r.H)
		next := r.state(r.lastH, t+1, batch).Data()
		for i := range gh.Data() {
			x := float64(r.lastPre.Data()[(i/r.H*r.Steps+t)*r.H+i%r.H])
			y := float64(next[i])
			gPre.Data()[i] = gh.Data()[i] * float32(r.Act.Grad(x, y))
		}
		xt := r.stepInput(r.lastX, t)
		r.Wx.Grad.AddInPlace(tensor.MatMulTransA(xt, gPre))
		r.Wh.Grad.AddInPlace(tensor.MatMulTransA(r.state(r.lastH, t, batch), gPre))
		for i := 0; i < batch; i++ {
			row := gPre.Data()[i*r.H : (i+1)*r.H]
			for j, v := range row {
				bg[j] += v
			}
		}
		// Into this step's input slice.
		dxt := tensor.MatMulTransB(gPre, r.Wx.Value)
		for i := 0; i < batch; i++ {
			copy(dx.Data()[i*r.InSize()+t*r.In:i*r.InSize()+(t+1)*r.In], dxt.Data()[i*r.In:(i+1)*r.In])
		}
		// Into the previous hidden state.
		gh = tensor.MatMulTransB(gPre, r.Wh.Value)
	}
	return dx
}
