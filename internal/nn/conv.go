package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution layer. Inputs and outputs are flattened
// channel-major (C, H, W) feature vectors; the layer owns its geometry.
// Weights are stored as a [outC, inC·KH·KW] matrix so the forward pass is an
// im2col + matmul — the same lowering the RAPIDNN composer assumes when it
// clusters each output channel's filter separately (§3.1).
type Conv2D struct {
	name string
	Geom tensor.ConvGeom
	OutC int
	W    *Param // [outC, inC*KH*KW]
	B    *Param // [1, outC]
	Act  Activation
	// Skip makes the layer residual: y = act(conv(x)) + x, the ResNet block
	// the §4.3 controller feeds through the RNA input FIFO. It requires the
	// output shape to equal the input shape (outC == inC, stride 1, same
	// padding).
	Skip bool

	lastCols []*tensor.Tensor // per-sample im2col matrices
	lastPre  *tensor.Tensor
	lastPost *tensor.Tensor
}

// NewConv2D creates a convolution layer with He-scaled initialization. A nil
// rng leaves the weights zero — for loaders that overwrite every parameter
// anyway.
func NewConv2D(name string, g tensor.ConvGeom, outC int, act Activation, rng *rand.Rand) *Conv2D {
	if err := g.Validate(); err != nil {
		panic("nn: " + err.Error())
	}
	if outC <= 0 {
		panic(fmt.Sprintf("nn: invalid outC %d", outC))
	}
	k := g.InC * g.KH * g.KW
	w := tensor.New(outC, k)
	if rng != nil {
		bound := float32(math.Sqrt(6.0 / float64(k)))
		for i := range w.Data() {
			w.Data()[i] = (rng.Float32()*2 - 1) * bound
		}
	}
	return &Conv2D{
		name: name, Geom: g, OutC: outC,
		W:   newParam(name+".W", w),
		B:   newParam(name+".b", tensor.New(1, outC)),
		Act: act,
	}
}

func (c *Conv2D) Name() string { return c.name }

func (c *Conv2D) InSize() int { return c.Geom.InC * c.Geom.InH * c.Geom.InW }

func (c *Conv2D) OutSize() int { return c.OutC * c.Geom.OutH() * c.Geom.OutW() }

func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// OutGeom returns the (C,H,W) geometry of the layer output, convenient for
// chaining into pooling or further convolution layers.
func (c *Conv2D) OutGeom() (ch, h, w int) { return c.OutC, c.Geom.OutH(), c.Geom.OutW() }

// Forward computes activations for a [batch, inC*H*W] input. Only a training
// pass caches what Backward needs; an inference pass writes no layer state.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, pre, post, cols := c.forward(x, train)
	if train {
		c.lastCols, c.lastPre, c.lastPost = cols, pre, post
	}
	return out
}

// forward returns the layer output, the pre-activations and the activations,
// reading the layer's parameters only. With keepCols it also returns each
// sample's im2col matrix, which Backward reuses.
func (c *Conv2D) forward(x *tensor.Tensor, keepCols bool) (out, pre, post *tensor.Tensor, cols []*tensor.Tensor) {
	if x.Dim(1) != c.InSize() {
		panic(fmt.Sprintf("nn: %s expects %d features, got %d", c.name, c.InSize(), x.Dim(1)))
	}
	batch := x.Dim(0)
	p := c.Geom.OutH() * c.Geom.OutW()
	pre = tensor.New(batch, c.OutC*p)
	if keepCols {
		cols = make([]*tensor.Tensor, batch)
	}
	bias := c.B.Value.Data()
	for i := 0; i < batch; i++ {
		sample := x.Data()[i*c.InSize() : (i+1)*c.InSize()]
		col := tensor.Im2Col(sample, c.Geom) // [p, k]
		if keepCols {
			cols[i] = col
		}
		// y[c][p] = Σ_k W[c][k]·col[p][k] + b[c], computed as col·Wᵀ then
		// re-laid-out channel-major.
		dst := pre.Data()[i*c.OutC*p : (i+1)*c.OutC*p]
		yc := tensor.MatMulTransB(col, c.W.Value) // [p, outC]
		for pp := 0; pp < p; pp++ {
			row := yc.Data()[pp*c.OutC : (pp+1)*c.OutC]
			for ch, v := range row {
				dst[ch*p+pp] = v + bias[ch]
			}
		}
	}
	post = tensor.New(batch, c.OutC*p)
	for i, v := range pre.Data() {
		post.Data()[i] = float32(c.Act.Eval(float64(v)))
	}
	if c.Skip {
		out = post.Clone()
		out.AddInPlace(x)
		return out, pre, post, cols
	}
	return post, pre, post, cols
}

// Backward propagates gradients and accumulates filter/bias gradients.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastCols == nil {
		panic("nn: Backward before Forward(train=true) on " + c.name)
	}
	batch := grad.Dim(0)
	p := c.Geom.OutH() * c.Geom.OutW()
	k := c.Geom.InC * c.Geom.KH * c.Geom.KW
	dx := tensor.New(batch, c.InSize())
	bg := c.B.Grad.Data()
	for i := 0; i < batch; i++ {
		// Gradient through activation, reshaped to [outC, p].
		gPre := tensor.New(c.OutC, p)
		base := i * c.OutC * p
		for j := 0; j < c.OutC*p; j++ {
			x := float64(c.lastPre.Data()[base+j])
			y := float64(c.lastPost.Data()[base+j])
			gPre.Data()[j] = grad.Data()[base+j] * float32(c.Act.Grad(x, y))
		}
		col := c.lastCols[i] // [p, k]
		// dW += gPre · col  ([outC,p]×[p,k])
		c.W.Grad.AddInPlace(tensor.MatMul(gPre, col))
		// db += row sums of gPre
		for ch := 0; ch < c.OutC; ch++ {
			row := gPre.Data()[ch*p : (ch+1)*p]
			var s float32
			for _, v := range row {
				s += v
			}
			bg[ch] += s
		}
		// dcol = gPreᵀ · W ([p,outC]×[outC,k]) then scatter back to image.
		dcol := tensor.MatMulTransA(gPre, c.W.Value)
		if dcol.Dim(0) != p || dcol.Dim(1) != k {
			panic("nn: conv backward shape error")
		}
		img := tensor.Col2Im(dcol, c.Geom)
		copy(dx.Data()[i*c.InSize():(i+1)*c.InSize()], img)
	}
	if c.Skip {
		dx.AddInPlace(grad) // identity path
	}
	return dx
}

// NewResidualConv2D creates a residual convolution block: same-shape 3×3
// convolution whose output adds the block input.
func NewResidualConv2D(name string, g tensor.ConvGeom, act Activation, rng *rand.Rand) *Conv2D {
	if g.Stride != 1 || g.OutH() != g.InH || g.OutW() != g.InW {
		panic("nn: residual conv requires a shape-preserving geometry")
	}
	c := NewConv2D(name, g, g.InC, act, rng)
	c.Skip = true
	return c
}
