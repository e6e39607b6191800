package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.New(8, 10)
	for i := range logits.Data() {
		logits.Data()[i] = rng.Float32()*20 - 10
	}
	p := Softmax(logits)
	for i := 0; i < 8; i++ {
		var s float64
		for j := 0; j < 10; j++ {
			v := p.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.FromSlice([]float32{1000, 1001, 999}, 1, 3)
	p := Softmax(logits)
	for _, v := range p.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed on large logits")
		}
	}
	if p.At(0, 1) < p.At(0, 0) || p.At(0, 0) < p.At(0, 2) {
		t.Fatal("softmax ordering broken")
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromSlice([]float32{30, 0, 0}, 1, 3)
	loss, grad := CrossEntropy(logits, []int{0})
	if loss > 1e-6 {
		t.Fatalf("loss on confident correct prediction = %v", loss)
	}
	if math.Abs(float64(grad.At(0, 0))) > 1e-6 {
		t.Fatalf("gradient should vanish, got %v", grad.At(0, 0))
	}
}

func TestCrossEntropyUniform(t *testing.T) {
	logits := tensor.New(1, 4)
	loss, _ := CrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform loss = %v, want ln4 = %v", loss, math.Log(4))
	}
}

func TestArgmax(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 3, 2, 9, 0, 1}, 2, 3)
	got := Argmax(x)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v, want [1 0]", got)
	}
}

func TestNetworkAddMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork("bad").Add(NewDense("a", 4, 8, ReLU{}, rng))
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	net.Add(NewDense("b", 9, 2, ReLU{}, rng))
}

// TestXORLearning trains a tiny MLP on XOR and requires it to reach zero
// training error — an end-to-end check that forward, backward and SGD
// compose into something that actually learns.
func TestXORLearning(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewNetwork("xor").
		Add(NewDense("h", 2, 8, Tanh{}, rng)).
		Add(NewDense("o", 8, 2, Identity{}, rng))
	x := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	opt := &SGD{LR: 0.5, Momentum: 0.9}
	for epoch := 0; epoch < 400; epoch++ {
		net.TrainBatch(x, labels, opt)
	}
	if err := net.ErrorRate(x, labels); err != 0 {
		t.Fatalf("XOR error rate after training = %v, want 0", err)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := newParam("w", tensor.FromSlice([]float32{0}, 1))
	opt := &SGD{LR: 0.1, Momentum: 0.9}
	// Constant gradient 1: first step −0.1, second −(0.9·0.1+0.1)=−0.19.
	p.Grad.Data()[0] = 1
	opt.Step([]*Param{p})
	if got := p.Value.Data()[0]; math.Abs(float64(got)+0.1) > 1e-7 {
		t.Fatalf("after step 1: %v, want -0.1", got)
	}
	p.Grad.Data()[0] = 1
	opt.Step([]*Param{p})
	if got := p.Value.Data()[0]; math.Abs(float64(got)+0.29) > 1e-6 {
		t.Fatalf("after step 2: %v, want -0.29", got)
	}
}

func TestSGDZeroesGrads(t *testing.T) {
	p := newParam("w", tensor.FromSlice([]float32{1}, 1))
	p.Grad.Data()[0] = 3
	(&SGD{LR: 0.1}).Step([]*Param{p})
	if p.Grad.Data()[0] != 0 {
		t.Fatal("Step must clear gradients")
	}
}

func TestDropoutInference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout("do", 100, 0.5, rng)
	x := tensor.New(1, 100)
	x.Fill(1)
	y := d.Forward(x, false)
	if !y.Equal(x, 0) {
		t.Fatal("dropout must be identity at inference")
	}
}

func TestDropoutTrainingMasksAndRescales(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDropout("do", 10000, 0.5, rng)
	x := tensor.New(1, 10000)
	x.Fill(1)
	y := d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range y.Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 4500 || zeros > 5500 {
		t.Fatalf("dropped %d of 10000, want ≈5000", zeros)
	}
	if zeros+twos != 10000 {
		t.Fatal("mask accounting broken")
	}
}

func TestNetworkTopologyString(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := NewConv2D("cv", g, 4, ReLU{}, rng)
	pg := tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 2, KW: 2, Stride: 2}
	net := NewNetwork("t").
		Add(conv).
		Add(NewPool2D("pl", MaxPool, pg)).
		Add(NewDense("fc", 4*4*4, 10, ReLU{}, rng))
	want := "IN:192, CV:4x3x3, PL:2x2, FC:10"
	if got := net.Topology(); got != want {
		t.Fatalf("Topology = %q, want %q", got, want)
	}
}

func TestNetworkMACs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewNetwork("t").
		Add(NewDense("a", 784, 512, ReLU{}, rng)).
		Add(NewDense("b", 512, 10, Identity{}, rng))
	want := int64(784*512 + 512*10)
	if got := net.MACs(); got != want {
		t.Fatalf("MACs = %d, want %d", got, want)
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewNetwork("t").Add(NewDense("a", 10, 5, ReLU{}, rng))
	if got := net.ParamCount(); got != 10*5+5 {
		t.Fatalf("ParamCount = %d, want 55", got)
	}
}
