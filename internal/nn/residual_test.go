package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestResidualDenseIdentityAtZeroWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewResidualDense("res", 6, ReLU{}, rng)
	d.W.Value.Zero()
	d.B.Value.Zero()
	x := tensor.FromSlice([]float32{1, -2, 3, -4, 5, -6}, 1, 6)
	y := d.Forward(x, false)
	if !y.Equal(x, 0) {
		t.Fatalf("zero-weight residual layer must be the identity, got %v", y)
	}
}

func TestResidualDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork("gc").
		Add(NewResidualDense("res", 6, Tanh{}, rng)).
		Add(NewDense("out", 6, 3, Identity{}, rng))
	x := tensor.New(4, 6)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()*2 - 1
	}
	checkGrads(t, net, x, []int{0, 2, 1, 2}, 1e-2)
}

func TestResidualConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := NewResidualConv2D("res", g, Tanh{}, rng)
	net := NewNetwork("gc").
		Add(conv).
		Add(NewDense("out", 32, 3, Identity{}, rng))
	x := tensor.New(2, 32)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()*2 - 1
	}
	checkGrads(t, net, x, []int{1, 0}, 1e-2)
}

func TestResidualConvRequiresShapePreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	defer func() {
		if recover() == nil {
			t.Fatal("stride-2 residual conv must panic")
		}
	}()
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 2, Pad: 1}
	NewResidualConv2D("bad", g, ReLU{}, rng)
}

func TestResidualCloneKeepsSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork("r").
		Add(NewResidualDense("res", 4, ReLU{}, rng)).
		Add(NewDense("out", 4, 2, Identity{}, rng))
	clone := CloneNetwork(net)
	d := clone.Layers[0].(*Dense)
	if !d.Skip {
		t.Fatal("clone lost the Skip flag")
	}
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	if !clone.Forward(x, false).Equal(net.Forward(x, false), 1e-6) {
		t.Fatal("clone behaves differently")
	}
}

// A residual network must be trainable end-to-end.
func TestResidualNetworkLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewNetwork("res").
		Add(NewDense("in", 2, 8, Tanh{}, rng)).
		Add(NewResidualDense("res1", 8, Tanh{}, rng)).
		Add(NewResidualDense("res2", 8, Tanh{}, rng)).
		Add(NewDense("out", 8, 2, Identity{}, rng))
	x := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	opt := &SGD{LR: 0.3, Momentum: 0.9}
	for epoch := 0; epoch < 500; epoch++ {
		net.TrainBatch(x, labels, opt)
	}
	if err := net.ErrorRate(x, labels); err != 0 {
		t.Fatalf("residual XOR error %v after training", err)
	}
}
