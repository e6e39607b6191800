package composer

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Tree codebooks (§3.1/§3.3) must compose with accuracy comparable to flat
// k-means, while bounding every codebook by the configured budget.
func TestComposeWithTreeCodebooks(t *testing.T) {
	net, ds := trainedFixture(t)
	flat := fastConfig()
	flat.MaxIterations = 1
	tree := flat
	tree.UseTreeCodebooks = true

	cf, err := Compose(net, ds, flat)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Compose(net, ds, tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ct.Plans {
		if !p.IsCompute() {
			continue
		}
		if p.W() > tree.WeightClusters || p.U() > tree.InputClusters {
			t.Fatalf("tree codebook exceeded budget: w=%d u=%d", p.W(), p.U())
		}
	}
	// The tree trades a little WCSS for reconfigurability; accuracy must stay
	// in the same neighbourhood.
	if ct.FinalError > cf.FinalError+0.05 {
		t.Fatalf("tree codebooks lost too much: flat %v vs tree %v", cf.FinalError, ct.FinalError)
	}
}

// The composer must reinterpret recurrent layers (§4.3): weights from both
// matrices share a codebook, inputs are encoded, and the activation goes
// through the lookup table.
func TestComposeRecurrentNetwork(t *testing.T) {
	const steps, in = 5, 4
	rng := rand.New(rand.NewSource(17))
	ds := dataset.Generate(dataset.Config{
		Name: "seq", NumClasses: 3, InputShape: []int{steps * in},
		Train: 400, Test: 120, Noise: 0.15, Seed: 18,
	})
	net := nn.NewNetwork("rnn").
		Add(nn.NewRecurrent("rnn", in, 16, steps, nn.Tanh{}, rng)).
		Add(nn.NewDense("out", 16, 3, nn.Identity{}, rng))
	opt := &nn.SGD{LR: 0.05, Momentum: 0.9}
	for epoch := 0; epoch < 25; epoch++ {
		ds.Batches(32, func(x *tensor.Tensor, labels []int) {
			net.TrainBatch(x, labels, opt)
		})
	}
	base := net.ErrorRate(ds.TestX, ds.TestY)
	if base > 0.4 {
		t.Fatalf("RNN baseline failed to learn: %v", base)
	}

	cfg := DefaultConfig()
	cfg.MaxIterations = 2
	cfg.RetrainEpochs = 1
	c, err := Compose(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.FinalError > base+0.15 {
		t.Fatalf("recurrent reinterpretation lost too much: %v → %v", base, c.FinalError)
	}
	plan := c.Plans[0]
	if plan.Kind != KindRecurrent || !plan.IsCompute() {
		t.Fatalf("recurrent plan kind = %v", plan.Kind)
	}
	if plan.Neurons != 16 || plan.Edges != steps*(in+16) {
		t.Fatalf("recurrent plan geometry: neurons=%d edges=%d", plan.Neurons, plan.Edges)
	}
	if plan.ActTable == nil {
		t.Fatal("tanh recurrent layer must get an activation table")
	}
	// The reinterpreted model must run.
	re := NewReinterpreted(c.Net, c.Plans)
	x := tensor.FromSlice(ds.TestX.Data()[:4*steps*in], 4, steps*in)
	if out := re.Forward(x); out.Dim(1) != 3 {
		t.Fatalf("reinterpreted RNN output shape %v", out.Shape())
	}
}

// The statistics pass samples a recurrent first layer's operands straight
// out of the training split, then appends the hidden-state sample to them;
// that append must not write into the split's unsampled rows.
func TestBuildPlansLeavesTrainingSplitUntouched(t *testing.T) {
	ds := dataset.GenerateSequences(dataset.SequenceConfig{
		Name: "seq", Steps: 5, Features: 4, NumClasses: 3, Train: 300, Test: 24, Seed: 47,
	})
	net := nn.NewNetwork("rnn").
		Add(nn.NewRecurrent("rnn", 4, 10, 5, nn.Tanh{}, rand.New(rand.NewSource(47)))).
		Add(nn.NewDense("out", 10, 3, nn.Identity{}, rand.New(rand.NewSource(48))))
	before := slices.Clone(ds.TrainX.Data())
	if _, err := BuildPlans(net, ds, fastConfig(), 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ds.TrainX.Data(), before) {
		t.Fatal("BuildPlans wrote into the training split")
	}
}

func TestReconfigurePlansLevels(t *testing.T) {
	net, ds := trainedFixture(t)
	cfg := fastConfig()
	cfg.UseTreeCodebooks = true
	cfg.MaxIterations = 1
	c, err := Compose(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Carry product tables, as a loaded artifact's plans do; they belong to
	// the old codebooks and must not survive the downshift.
	for _, p := range c.Plans {
		tabs := make([][]int64, len(p.WeightCodebooks))
		for g := range tabs {
			tabs[g] = p.ProductTable(g)
		}
		p.Products = tabs
	}
	// Downshift to w≤8, u≤16 without re-clustering.
	plans, err := ReconfigurePlans(c.Plans, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if !p.IsCompute() {
			continue
		}
		if p.W() > 8 || p.U() > 16 {
			t.Fatalf("reconfigured plan exceeds budget: w=%d u=%d", p.W(), p.U())
		}
		for g, wcb := range p.WeightCodebooks {
			if got, want := p.ProductTable(g), productTable(wcb, p.InputCodebook, FlatProductFracBits); !slices.Equal(got, want) {
				t.Fatalf("plan %s group %d: ProductTable is not the table of its new codebooks (%d vs %d entries)",
					p.Name, g, len(got), len(want))
			}
		}
	}
	// Originals untouched.
	for _, p := range c.Plans {
		if p.IsCompute() && (p.W() < 16 || p.U() < 16) {
			t.Fatalf("original plans were mutated: w=%d u=%d", p.W(), p.U())
		}
	}
	// The coarser model still runs and is not absurdly worse.
	re := NewReinterpreted(c.Net, plans)
	coarse := re.ErrorRate(ds.TestX, ds.TestY)
	if coarse > c.FinalError+0.3 {
		t.Fatalf("level downshift destroyed the model: %v → %v", c.FinalError, coarse)
	}
}

func TestReconfigurePlansRequiresTrees(t *testing.T) {
	net, ds := trainedFixture(t)
	cfg := fastConfig()
	cfg.MaxIterations = 1 // flat codebooks
	c, err := Compose(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconfigurePlans(c.Plans, 8, 8); err == nil {
		t.Fatal("flat plans must refuse reconfiguration")
	}
	if _, err := ReconfigurePlans(c.Plans, 0, 8); err == nil {
		t.Fatal("zero budget must error")
	}
}

// §1/§6: k-means codebooks must lose no more accuracy than uniform
// (linear-grid) quantization at the same codebook sizes — the reason the
// composer clusters instead of gridding.
func TestKMeansBeatsLinearCodebooks(t *testing.T) {
	net, ds := trainedFixture(t)
	errWith := func(linear bool) float64 {
		cfg := fastConfig()
		cfg.WeightClusters, cfg.InputClusters = 4, 8
		cfg.MaxIterations = 1 // isolate the codebook quality
		cfg.LinearCodebooks = linear
		c, err := Compose(net, ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c.FinalError
	}
	kmeans := errWith(false)
	linear := errWith(true)
	if kmeans > linear+0.01 {
		t.Fatalf("k-means codebooks (%.3f error) worse than linear grids (%.3f)", kmeans, linear)
	}
}
