// Package rapidnn is a software implementation of RAPIDNN — "Deep Learning
// Acceleration with Neuron-to-Memory Transformation" (HPCA 2020) — as a
// reusable Go library. It covers the full pipeline the paper describes:
//
//  1. train a DNN (or bring layer shapes of your own),
//  2. reinterpret it with the DNN composer: cluster weights and activations
//     into codebooks, build activation lookup tables, retrain,
//  3. deploy the reinterpreted model onto the simulated RAPIDNN accelerator
//     (RNA blocks built from crossbar memories and nearest-distance CAMs)
//     and obtain latency / energy / area / accuracy reports.
//
// The package wraps the internal substrates (tensor math, the NN library,
// k-means codebooks, the memristor device models, the cycle/energy
// simulator and the baseline accelerator models) behind a small, stable
// surface. See the examples/ directory for runnable end-to-end programs and
// DESIGN.md for the system inventory.
package rapidnn

import (
	"fmt"
	"io"

	"repro/internal/accel"
	"repro/internal/composer"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Dataset is a labelled train/test split.
type Dataset struct {
	ds *dataset.Dataset
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.ds.Name }

// Classes returns the number of target classes.
func (d *Dataset) Classes() int { return d.ds.NumClasses }

// Features returns the flattened input feature count.
func (d *Dataset) Features() int { return d.ds.InSize() }

// TrainSize and TestSize return split sizes.
func (d *Dataset) TrainSize() int { return d.ds.TrainX.Dim(0) }

// TestSize returns the number of held-out samples.
func (d *Dataset) TestSize() int { return d.ds.TestX.Dim(0) }

// BenchmarkDataset returns one of the paper's six benchmark stand-ins:
// "MNIST", "ISOLET", "HAR", "CIFAR-10", "CIFAR-100" or "ImageNet". full
// selects the larger generation used by the experiment harness.
func BenchmarkDataset(name string, full bool) (*Dataset, error) {
	size := dataset.Small
	if full {
		size = dataset.Full
	}
	for _, d := range dataset.AllBenchmarks(size) {
		if d.Name == name {
			return &Dataset{ds: d}, nil
		}
	}
	return nil, fmt.Errorf("rapidnn: unknown benchmark dataset %q", name)
}

// SyntheticDataset generates a deterministic classification dataset with the
// given shape; see the paper-benchmark generators for reference settings.
func SyntheticDataset(name string, features, classes, train, test int, noise float64, seed int64) *Dataset {
	return &Dataset{ds: dataset.Generate(dataset.Config{
		Name: name, NumClasses: classes, InputShape: []int{features},
		Train: train, Test: test, Noise: noise, Seed: seed,
	})}
}

// Network is a trainable feed-forward model.
type Network struct {
	net *nn.Network
}

// NewMLP builds a fully-connected network with ReLU hidden layers (the
// paper's FC benchmark topology when hidden = [512, 512]).
func NewMLP(name string, in int, hidden []int, classes int, seed int64) *Network {
	if len(hidden) == 0 {
		h := model.FCNet(name, in, classes, 1, seed)
		return &Network{net: h}
	}
	// Build explicitly for arbitrary hidden stacks.
	rngNet := nn.NewNetwork(name)
	prev := in
	rng := newRand(seed)
	for i, h := range hidden {
		rngNet.Add(nn.NewDense(fmt.Sprintf("fc%d", i+1), prev, h, nn.ReLU{}, rng))
		prev = h
	}
	rngNet.Add(nn.NewDense("out", prev, classes, nn.Identity{}, rng))
	return &Network{net: rngNet}
}

// NewRNN builds a recurrent classifier: an Elman RNN over sequences of
// `steps` frames with `in` features each, followed by a dense softmax head —
// the recurrent layer type the RAPIDNN controller supports (§4.3).
func NewRNN(name string, in, hidden, steps, classes int, seed int64) *Network {
	rng := newRand(seed)
	net := nn.NewNetwork(name).
		Add(nn.NewRecurrent("rnn", in, hidden, steps, nn.Tanh{}, rng)).
		Add(nn.NewDense("out", hidden, classes, nn.Identity{}, rng))
	return &Network{net: net}
}

// SyntheticSequenceDataset generates a deterministic sequence-classification
// dataset: each class places its energy burst in a different segment of the
// sequence. Inputs are flattened [steps × features] frames.
func SyntheticSequenceDataset(name string, steps, features, classes, train, test int, seed int64) *Dataset {
	return &Dataset{ds: dataset.GenerateSequences(dataset.SequenceConfig{
		Name: name, Steps: steps, Features: features, NumClasses: classes,
		Train: train, Test: test, Seed: seed,
	})}
}

// BenchmarkModel builds the paper topology for a benchmark dataset at the
// given width scale (1.0 = the paper's layer sizes).
func BenchmarkModel(d *Dataset, scale float64, seed int64) (*Network, error) {
	switch d.Name() {
	case "MNIST", "ISOLET", "HAR":
		return &Network{net: model.FCNet(d.Name(), d.Features(), d.Classes(), scale, seed)}, nil
	case "CIFAR-10", "CIFAR-100":
		return &Network{net: model.ConvNet(d.Name(), 3, 32, 32, d.Classes(), scale, seed)}, nil
	case "ImageNet":
		return &Network{net: model.ImageNetNet(model.VGGNet, 3, 32, 32, d.Classes(), scale, seed)}, nil
	}
	return nil, fmt.Errorf("rapidnn: no benchmark topology for %q", d.Name())
}

// Topology renders the network in the paper's Table 2 notation.
func (n *Network) Topology() string { return n.net.Topology() }

// MACs returns multiply-accumulate operations per inference.
func (n *Network) MACs() int64 { return n.net.MACs() }

// TrainOptions configures baseline training (SGD with momentum, §5.2).
type TrainOptions struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
}

// DefaultTrainOptions mirrors the harness defaults.
func DefaultTrainOptions() TrainOptions {
	c := model.DefaultTrain()
	return TrainOptions{Epochs: c.Epochs, BatchSize: c.BatchSize, LR: c.LR, Momentum: c.Momentum}
}

// Train fits the network on the dataset's training split and returns the
// test error rate.
func (n *Network) Train(d *Dataset, opt TrainOptions) float64 {
	return model.Train(n.net, d.ds, model.TrainConfig{
		Epochs: opt.Epochs, BatchSize: opt.BatchSize, LR: opt.LR, Momentum: opt.Momentum,
	})
}

// ErrorRate evaluates the full-precision network on the test split.
func (n *Network) ErrorRate(d *Dataset) float64 {
	return n.net.ErrorRate(d.ds.TestX, d.ds.TestY)
}

// ComposeOptions configures the DNN composer (§3). The zero value is
// replaced by the paper's defaults (w = u = 64, 64-row tables, ≤5
// iterations).
type ComposeOptions struct {
	WeightClusters int
	InputClusters  int
	ActTableRows   int
	MaxIterations  int
	RetrainEpochs  int
	// ShareFraction models RNA-block sharing (§5.6).
	ShareFraction float64
	// LinearQuantization disables the non-linear activation-table placement
	// (the ablation of §2.2).
	LinearQuantization bool
	// TreeCodebooks builds hierarchical codebooks (§3.1, Fig. 5) so the
	// composed model can later be Tune()d to a shallower precision level
	// without re-clustering.
	TreeCodebooks bool
	Seed          int64
}

func (o ComposeOptions) toConfig() composer.Config {
	cfg := composer.DefaultConfig()
	if o.WeightClusters > 0 {
		cfg.WeightClusters = o.WeightClusters
	}
	if o.InputClusters > 0 {
		cfg.InputClusters = o.InputClusters
	}
	if o.ActTableRows > 0 {
		cfg.ActRows = o.ActTableRows
	}
	if o.MaxIterations > 0 {
		cfg.MaxIterations = o.MaxIterations
	}
	if o.RetrainEpochs > 0 {
		cfg.RetrainEpochs = o.RetrainEpochs
	}
	cfg.ShareFraction = o.ShareFraction
	cfg.UseTreeCodebooks = o.TreeCodebooks
	if o.LinearQuantization {
		cfg.ActMode = quant.Linear
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// Composed is a reinterpreted, memory-ready model.
type Composed struct {
	inner *composer.Composed
	ds    *dataset.Dataset
	re    *composer.Reinterpreted
}

// Compose reinterprets the trained network for in-memory execution: weights
// and activations are clustered into codebooks, activation functions become
// lookup tables, and the model is retrained against the clustered weights.
// The input network is not modified.
func (n *Network) Compose(d *Dataset, opt ComposeOptions) (*Composed, error) {
	c, err := composer.Compose(n.net, d.ds, opt.toConfig())
	if err != nil {
		return nil, err
	}
	return &Composed{
		inner: c,
		ds:    d.ds,
		re:    composer.NewReinterpreted(c.Net, c.Plans),
	}, nil
}

// BaselineError is the full-precision test error before reinterpretation.
func (c *Composed) BaselineError() float64 { return c.inner.BaselineError }

// Error is the reinterpreted model's test error — exactly what the RNA
// hardware produces, since it computes with the same finite tables.
func (c *Composed) Error() float64 { return c.inner.FinalError }

// DeltaE is the accuracy loss Δe = Error − BaselineError (§3.2).
func (c *Composed) DeltaE() float64 { return c.inner.DeltaE() }

// RetrainEpochs is the number of retraining epochs the composer spent
// (Table 3).
func (c *Composed) RetrainEpochs() int { return c.inner.TotalEpochs }

// MemoryBytes is the accelerator table footprint of the composed model.
func (c *Composed) MemoryBytes() int64 {
	return composer.DefaultMemoryModel().TotalBytes(c.inner.Plans)
}

// Predict classifies raw feature vectors through the reinterpreted model.
func (c *Composed) Predict(inputs [][]float32) ([]int, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	in := c.inner.Net.InSize()
	flat := make([]float32, 0, len(inputs)*in)
	for i, row := range inputs {
		if len(row) != in {
			return nil, fmt.Errorf("rapidnn: input %d has %d features, want %d", i, len(row), in)
		}
		flat = append(flat, row...)
	}
	x := tensor.FromSlice(flat, len(inputs), in)
	return c.re.Predict(x), nil
}

// Tune re-targets a tree-codebook composition to new precision budgets by
// selecting shallower levels of the stored codebook trees — no re-clustering
// and no retraining, the dynamic reconfiguration of §3.1/§5.4. It returns a
// new Composed whose error has been re-estimated on the dataset; the
// receiver is unchanged. Compose with TreeCodebooks: true first.
func (c *Composed) Tune(maxWeightClusters, maxInputClusters int) (*Composed, error) {
	plans, err := composer.ReconfigurePlans(c.inner.Plans, maxWeightClusters, maxInputClusters)
	if err != nil {
		return nil, err
	}
	re := composer.NewReinterpreted(c.inner.Net, plans)
	inner := *c.inner
	inner.Plans = plans
	inner.FinalError = re.ErrorRate(c.ds.TestX, c.ds.TestY)
	return &Composed{inner: &inner, ds: c.ds, re: re}, nil
}

// Save writes the composed model — quantized weights, codebooks, lookup
// tables, product tables and quality metadata — to w as a RAPIDNN2
// artifact, so the offline composition can be shipped and reloaded without
// retraining.
func (c *Composed) Save(w io.Writer) error { return c.inner.SaveFlat(w) }

// LoadComposed reads a RAPIDNN2 artifact written by Save into memory and
// attaches the dataset it will be evaluated against (the artifact itself is
// dataset-independent). A stream in the retired RAPIDNN1 gob format is
// rejected with an error naming the magic it found.
func LoadComposed(r io.Reader, d *Dataset) (*Composed, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rapidnn: %w", err)
	}
	inner, err := composer.LoadFlat(data)
	if err != nil {
		return nil, err
	}
	return &Composed{
		inner: inner,
		ds:    d.ds,
		re:    composer.NewReinterpreted(inner.Net, inner.Plans),
	}, nil
}

// DeployOptions selects the accelerator deployment for simulation.
type DeployOptions struct {
	Chips         int     // 1 by default
	ShareFraction float64 // RNA sharing (§5.6)
}

// Report is the accelerator simulation result for one deployment.
type Report struct {
	Network                  string
	Chips                    int
	LatencySeconds           float64
	ThroughputIPS            float64
	EnergyPerInput           float64 // J, per-operation energy model
	AreaMM2                  float64
	PeakPowerW               float64
	MemoryBytes              int64
	RNAsRequired             int
	Multiplex                float64
	GOPS                     float64
	GOPSPerMM2               float64
	GOPSPerW                 float64
	EDP                      float64
	WeightedAccumEnergyShare float64
}

// Simulate maps the composed model onto the RAPIDNN accelerator and returns
// its performance/energy/area report.
func (c *Composed) Simulate(opt DeployOptions) (*Report, error) {
	cfg := accel.DefaultConfig()
	if opt.Chips > 0 {
		cfg.Chips = opt.Chips
	}
	cfg.ShareFraction = opt.ShareFraction
	rep, err := accel.Simulate(c.inner.Net.Name, c.inner.Plans, c.inner.Net.MACs(), cfg)
	if err != nil {
		return nil, err
	}
	return publicReport(rep), nil
}

func publicReport(rep *accel.Report) *Report {
	tot := rep.Breakdown.Total()
	waShare := 0.0
	if tot.EnergyJ > 0 {
		waShare = rep.Breakdown[0].EnergyJ / tot.EnergyJ
	}
	return &Report{
		Network:                  rep.Network,
		Chips:                    rep.Chips,
		LatencySeconds:           rep.LatencySeconds,
		ThroughputIPS:            rep.ThroughputIPS,
		EnergyPerInput:           rep.EnergyPerInputJ,
		AreaMM2:                  rep.AreaMM2,
		PeakPowerW:               rep.PeakPowerW,
		MemoryBytes:              rep.MemoryBytes,
		RNAsRequired:             rep.RNAsRequired,
		Multiplex:                rep.Multiplex,
		GOPS:                     rep.GOPS,
		GOPSPerMM2:               rep.GOPSPerMM2,
		GOPSPerW:                 rep.GOPSPerW,
		EDP:                      rep.EDP(),
		WeightedAccumEnergyShare: waShare,
	}
}
