package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Network is an ordered stack of layers trained with softmax cross-entropy.
type Network struct {
	Name   string
	Layers []Layer
}

// NewNetwork creates an empty network.
func NewNetwork(name string) *Network { return &Network{Name: name} }

// Add appends a layer, validating that feature sizes chain correctly.
func (n *Network) Add(l Layer) *Network {
	if len(n.Layers) > 0 {
		prev := n.Layers[len(n.Layers)-1]
		if prev.OutSize() != l.InSize() {
			panic(fmt.Sprintf("nn: layer %s in=%d does not match %s out=%d",
				l.Name(), l.InSize(), prev.Name(), prev.OutSize()))
		}
	}
	n.Layers = append(n.Layers, l)
	return n
}

// InSize returns the input feature count of the first layer.
func (n *Network) InSize() int { return n.Layers[0].InSize() }

// OutSize returns the output feature count (class count) of the last layer.
func (n *Network) OutSize() int { return n.Layers[len(n.Layers)-1].OutSize() }

// Params returns every trainable parameter in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward runs the network on a [batch, in] input.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// TrainBatch runs one forward/backward/update step and returns the batch loss.
func (n *Network) TrainBatch(x *tensor.Tensor, labels []int, opt *SGD) float64 {
	logits := n.Forward(x, true)
	loss, grad := CrossEntropy(logits, labels)
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	opt.Step(n.Params())
	return loss
}

// Predict returns the argmax class for each row of x.
func (n *Network) Predict(x *tensor.Tensor) []int {
	return Argmax(n.Forward(x, false))
}

// ErrorRate returns the network's misclassification fraction on (x, labels).
func (n *Network) ErrorRate(x *tensor.Tensor, labels []int) float64 {
	return ErrorRate(n.Predict, x, labels)
}

// ErrorRate returns the fraction of x's rows that predict misclassifies — the
// paper's error-rate metric (§5.2). It predicts 64 rows at a time; the batch
// size changes no answer, because every layer evaluates its rows
// independently.
func ErrorRate(predict func(*tensor.Tensor) []int, x *tensor.Tensor, labels []int) float64 {
	total, in := x.Dim(0), x.Dim(1)
	wrong := 0
	for start := 0; start < total; start += 64 {
		end := min(start+64, total)
		for i, p := range predict(tensor.FromSlice(x.Data()[start*in:end*in], end-start, in)) {
			if p != labels[start+i] {
				wrong++
			}
		}
	}
	return float64(wrong) / float64(total)
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		c += p.Value.Len()
	}
	return c
}

// MACs estimates multiply-accumulate operations for one inference, the "ops"
// unit used for GOPS throughput comparisons (§5.5).
func (n *Network) MACs() int64 {
	var ops int64
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Dense:
			ops += int64(t.InSize()) * int64(t.OutSize())
		case *Conv2D:
			k := t.Geom.InC * t.Geom.KH * t.Geom.KW
			ops += int64(k) * int64(t.OutC) * int64(t.Geom.OutH()*t.Geom.OutW())
		case *Recurrent:
			ops += int64(t.Steps) * int64(t.In+t.H) * int64(t.H)
		}
	}
	return ops
}

// Topology renders a compact human-readable description such as
// "IN:784, FC:512, FC:512, FC:10" matching the paper's Table 2 notation.
func (n *Network) Topology() string {
	s := fmt.Sprintf("IN:%d", n.InSize())
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Dense:
			s += fmt.Sprintf(", FC:%d", t.OutSize())
		case *Conv2D:
			s += fmt.Sprintf(", CV:%dx%dx%d", t.OutC, t.Geom.KH, t.Geom.KW)
		case *Pool2D:
			s += fmt.Sprintf(", PL:%dx%d", t.Geom.KH, t.Geom.KW)
		case *Recurrent:
			s += fmt.Sprintf(", RN:%dx%d", t.H, t.Steps)
		}
	}
	return s
}
