package composer

import (
	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Reinterpreted is the software model of the memory-based network (§3.2,
// "error estimation module forms a software version of the reinterpreted
// DNN"): weights are snapped to their codebooks, every compute layer's
// operands are encoded onto its input codebook (the virtual layer of §2.2
// handles the raw input), and activation functions go through their lookup
// tables. Its classification error is exactly what the RNA hardware
// produces, because the hardware computes with the same finite tables.
//
// A Reinterpreted is safe for concurrent use: its forward runs every layer
// in inference mode, which writes no layer state.
type Reinterpreted struct {
	plans []*LayerPlan
	qnet  *nn.Network // clone with quantized weights and table activations
}

// tableAct adapts a quant.ActTable to the nn.Activation interface so the
// quantized clone's layers evaluate through the lookup table.
type tableAct struct {
	tab  interface{ Eval(float32) float32 }
	name string
}

func (t tableAct) Name() string              { return t.name + "-table" }
func (t tableAct) Eval(x float64) float64    { return float64(t.tab.Eval(float32(x))) }
func (t tableAct) Grad(_, _ float64) float64 { panic("composer: table activations are inference-only") }

// NewReinterpreted builds the reinterpreted model for net under plans.
// net is cloned; the caller's network is untouched.
func NewReinterpreted(net *nn.Network, plans []*LayerPlan) *Reinterpreted {
	q := nn.CloneNetwork(net)
	QuantizeWeightsInPlace(q, plans)
	for i, l := range q.Layers {
		p := plans[i]
		if p.ActTable == nil {
			continue
		}
		switch t := l.(type) {
		case *nn.Dense:
			t.Act = tableAct{tab: p.ActTable, name: t.Act.Name()}
		case *nn.Conv2D:
			t.Act = tableAct{tab: p.ActTable, name: t.Act.Name()}
		case *nn.Recurrent:
			t.Act = tableAct{tab: p.ActTable, name: t.Act.Name()}
		}
	}
	return &Reinterpreted{plans: plans, qnet: q}
}

// Forward runs the reinterpreted model on a [batch, in] input, encoding the
// operands of every compute layer onto its input codebook before the
// weighted accumulation.
func (r *Reinterpreted) Forward(x *tensor.Tensor) *tensor.Tensor {
	for i, l := range r.qnet.Layers {
		p := r.plans[i]
		if p.IsCompute() {
			x = quantizeTensor(x, p.InputCodebook)
		}
		x = l.Forward(x, false)
	}
	return x
}

// Predict returns the argmax class per row.
func (r *Reinterpreted) Predict(x *tensor.Tensor) []int {
	return nn.Argmax(r.Forward(x))
}

// ErrorRate evaluates the reinterpreted model's misclassification rate.
func (r *Reinterpreted) ErrorRate(x *tensor.Tensor, labels []int) float64 {
	return nn.ErrorRate(r.Predict, x, labels)
}

// Plans exposes the layer plans driving this model.
func (r *Reinterpreted) Plans() []*LayerPlan { return r.plans }

// Net exposes the quantized clone (weights snapped to codebooks).
func (r *Reinterpreted) Net() *nn.Network { return r.qnet }

func quantizeTensor(x *tensor.Tensor, codebook []float32) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	for i, v := range x.Data() {
		out.Data()[i] = cluster.Quantize(codebook, v)
	}
	return out
}
