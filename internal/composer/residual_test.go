package composer

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The composer must handle residual layers transparently (§4.3): they are
// planned like their dense/conv base, the skip value arrives unquantized
// through the input FIFO, and the reinterpreted model keeps the identity
// path.
func TestComposeResidualNetwork(t *testing.T) {
	ds := dataset.Generate(dataset.Config{
		Name: "res", NumClasses: 4, InputShape: []int{16},
		Train: 300, Test: 100, Noise: 0.15, Seed: 9,
	})
	rng := rand.New(rand.NewSource(9))
	net := nn.NewNetwork("res").
		Add(nn.NewDense("in", 16, 24, nn.ReLU{}, rng)).
		Add(nn.NewResidualDense("res1", 24, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 24, 4, nn.Identity{}, rng))
	opt := &nn.SGD{LR: 0.05, Momentum: 0.9}
	for epoch := 0; epoch < 15; epoch++ {
		ds.Batches(32, func(x *tensor.Tensor, labels []int) {
			net.TrainBatch(x, labels, opt)
		})
	}
	baseErr := net.ErrorRate(ds.TestX, ds.TestY)
	if baseErr > 0.4 {
		t.Fatalf("residual baseline failed to learn: %v", baseErr)
	}
	cfg := DefaultConfig()
	cfg.MaxIterations = 2
	cfg.RetrainEpochs = 1
	c, err := Compose(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.FinalError > baseErr+0.1 {
		t.Fatalf("residual reinterpretation lost too much: %v → %v", baseErr, c.FinalError)
	}
	// The residual layer's plan must look like a dense plan.
	if c.Plans[1].Kind != KindDense || c.Plans[1].W() == 0 {
		t.Fatalf("residual layer plan malformed: %+v", c.Plans[1])
	}
	// The reinterpreted clone must keep the identity path.
	re := NewReinterpreted(c.Net, c.Plans)
	if d, ok := re.Net().Layers[1].(*nn.Dense); !ok || !d.Skip {
		t.Fatal("reinterpreted clone dropped the skip connection")
	}
}
