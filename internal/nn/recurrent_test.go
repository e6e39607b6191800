package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestRecurrentShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRecurrent("rnn", 5, 8, 4, Tanh{}, rng)
	if r.InSize() != 20 || r.OutSize() != 8 {
		t.Fatalf("sizes: in %d out %d", r.InSize(), r.OutSize())
	}
	x := tensor.New(3, 20)
	y := r.Forward(x, false)
	if y.Dim(0) != 3 || y.Dim(1) != 8 {
		t.Fatalf("output shape %v", y.Shape())
	}
}

func TestRecurrentZeroInputZeroWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewRecurrent("rnn", 2, 3, 3, Tanh{}, rng)
	r.Wx.Value.Zero()
	r.Wh.Value.Zero()
	r.B.Value.Zero()
	y := r.Forward(tensor.New(1, 6), false)
	for _, v := range y.Data() {
		if v != 0 {
			t.Fatalf("zeroed RNN output %v", y.Data())
		}
	}
}

func TestRecurrentGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork("gc").
		Add(NewRecurrent("rnn", 3, 5, 3, Tanh{}, rng)).
		Add(NewDense("out", 5, 2, Identity{}, rng))
	x := tensor.New(3, 9)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()*2 - 1
	}
	checkGrads(t, net, x, []int{0, 1, 0}, 1e-2)
}

// An RNN must learn a simple temporal task: classify whether the first or
// the second half of the sequence carries the larger energy.
func TestRecurrentLearnsTemporalTask(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const steps, in = 6, 2
	net := NewNetwork("rnn").
		Add(NewRecurrent("rnn", in, 12, steps, Tanh{}, rng)).
		Add(NewDense("out", 12, 2, Identity{}, rng))
	gen := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, steps*in)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			labels[i] = i % 2
			for tstep := 0; tstep < steps; tstep++ {
				hot := (labels[i] == 0 && tstep < steps/2) || (labels[i] == 1 && tstep >= steps/2)
				for f := 0; f < in; f++ {
					v := rng.Float32() * 0.2
					if hot {
						v += 0.8
					}
					x.Set(v, i, tstep*in+f)
				}
			}
		}
		return x, labels
	}
	trainX, trainY := gen(200)
	opt := &SGD{LR: 0.1, Momentum: 0.9}
	for epoch := 0; epoch < 60; epoch++ {
		net.TrainBatch(trainX, trainY, opt)
	}
	testX, testY := gen(100)
	if err := net.ErrorRate(testX, testY); err > 0.1 {
		t.Fatalf("RNN failed the temporal task: error %v", err)
	}
}

func TestRecurrentCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork("rnn").
		Add(NewRecurrent("rnn", 2, 4, 3, Tanh{}, rng)).
		Add(NewDense("out", 4, 2, Identity{}, rng))
	clone := CloneNetwork(net)
	orig := net.Layers[0].(*Recurrent)
	cl := clone.Layers[0].(*Recurrent)
	cl.Wx.Value.Fill(9)
	if orig.Wx.Value.Data()[0] == 9 {
		t.Fatal("clone shares Wx storage")
	}
	x := tensor.New(2, 6)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	_ = net.Forward(x, false)
}

func TestRecurrentTopologyAndMACs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork("rnn").
		Add(NewRecurrent("rnn", 4, 8, 5, Tanh{}, rng)).
		Add(NewDense("out", 8, 3, Identity{}, rng))
	if got := net.Topology(); got != "IN:20, RN:8x5, FC:3" {
		t.Fatalf("Topology = %q", got)
	}
	want := int64(5*(4+8)*8 + 8*3)
	if got := net.MACs(); got != want {
		t.Fatalf("MACs = %d, want %d", got, want)
	}
}

func TestRecurrentValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecurrent("bad", 0, 4, 2, Tanh{}, rng)
}
