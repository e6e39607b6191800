// Package composer implements the RAPIDNN DNN composer (§3, Fig. 4): the
// offline pipeline that reinterprets a trained full-precision network into a
// memory-compatible model. It clusters each layer's weights and inputs into
// codebooks (parameter clustering), approximates activation functions with
// lookup tables, estimates the reinterpreted model's classification error,
// and retrains the network against the clustered weights until the quality
// criterion is met or the iteration budget is exhausted.
package composer

import (
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Config controls one composition run. DefaultConfig gives the paper's
// operating point (w = u = 64, 64-row activation tables, ≤5 iterations).
type Config struct {
	// WeightClusters (w) and InputClusters (u) are the codebook sizes.
	WeightClusters int
	InputClusters  int
	// ActRows is the activation lookup-table size (64 in the paper).
	ActRows int
	// ActMode selects linear or non-linear table quantization.
	ActMode quant.Mode
	// ReLUAsComparator replaces ReLU tables with the exact comparator the
	// paper recommends (§2.2): "for easy activation functions such as ReLU,
	// our design can replace the lookup table with a simple comparator".
	ReLUAsComparator bool
	// SampleFrac is the fraction of training samples fed forward to collect
	// activation statistics (the paper reports 2 % suffices on full-size
	// datasets; the synthetic sets are smaller so the default is higher).
	SampleFrac float64
	// MaxIterations bounds the cluster→estimate→retrain loop (5 in §3.2).
	MaxIterations int
	// RetrainEpochs is the number of epochs per retraining round.
	RetrainEpochs int
	// Epsilon is the tolerated accuracy loss Δe; iteration stops early once
	// Δe ≤ Epsilon.
	Epsilon float64
	// Retraining hyper-parameters.
	LR        float64
	Momentum  float64
	BatchSize int
	// ShareFraction models RNA-block sharing (§5.6): the fraction of each
	// convolution layer's output channels that share a neighbour's codebook
	// instead of owning one.
	ShareFraction float64
	// UseTreeCodebooks builds each codebook as a hierarchical tree (§3.1,
	// Fig. 5) and selects the deepest level within the cluster budget, so a
	// deployed model can later be re-configured to a shallower level without
	// re-clustering. Flat k-means (the default) fits slightly better at a
	// fixed size.
	UseTreeCodebooks bool
	// LinearCodebooks replaces k-means clustering with uniform grids over
	// the observed value range — the naive quantization the paper argues
	// against (§1, §6: linear lookup quantization costs ~3.3 % top-1 in
	// prior work while clustering recovers the baseline). Kept for the
	// ablation.
	LinearCodebooks bool
	// Canaries is the number of golden self-test vectors embedded in the
	// composed artifact (test-split inputs paired with the reinterpreted
	// model's predictions). 0 keeps the default of 8; negative disables.
	Canaries int
	Seed     int64
	// Trace, when set, records composition stage spans — the statistics
	// feed-forward, each layer's clustering, each iteration's retraining —
	// on the "composer" track. Runtime-only: it never reaches serialized
	// artifacts.
	Trace *obs.Tracer `json:"-"`
}

// DefaultConfig returns the paper's default operating point.
func DefaultConfig() Config {
	return Config{
		WeightClusters:   64,
		InputClusters:    64,
		ActRows:          64,
		ActMode:          quant.NonLinear,
		ReLUAsComparator: true,
		SampleFrac:       0.25,
		MaxIterations:    5,
		RetrainEpochs:    2,
		Epsilon:          0,
		LR:               0.02,
		Momentum:         0.9,
		BatchSize:        32,
		Seed:             1,
	}
}

func (c Config) validate() error {
	if c.WeightClusters < 1 || c.InputClusters < 1 {
		return fmt.Errorf("composer: cluster counts must be ≥1, got w=%d u=%d", c.WeightClusters, c.InputClusters)
	}
	if c.ActRows < 2 {
		return fmt.Errorf("composer: ActRows must be ≥2, got %d", c.ActRows)
	}
	if c.MaxIterations < 1 {
		return fmt.Errorf("composer: MaxIterations must be ≥1, got %d", c.MaxIterations)
	}
	if c.SampleFrac <= 0 || c.SampleFrac > 1 {
		return fmt.Errorf("composer: SampleFrac %v out of (0,1]", c.SampleFrac)
	}
	if c.ShareFraction < 0 || c.ShareFraction > 0.9 {
		return fmt.Errorf("composer: ShareFraction %v out of [0,0.9]", c.ShareFraction)
	}
	return nil
}

// IterationStats records one cluster/retrain round (Fig. 6d).
type IterationStats struct {
	Iteration         int
	ClusteredError    float64 // reinterpreted-model error after clustering
	RetrainedEpochs   int     // epochs spent before this evaluation
	AccuracyLossDelta float64 // Δe = clustered − baseline
}

// Composed is the output of the composer: the retrained network, the
// per-layer plans (codebooks and tables) that configure RNA blocks, and the
// quality metrics of the reinterpretation.
type Composed struct {
	Cfg           Config
	Net           *nn.Network // retrained full-precision model
	Plans         []*LayerPlan
	BaselineError float64
	FinalError    float64
	History       []IterationStats
	TotalEpochs   int
	// Canaries are the golden self-test vectors recorded at compose time
	// (canary.go); they ship inside the serialized artifact.
	Canaries []Canary

	// release unmaps the backing file of a model loaded by LoadFile; nil for
	// composed models and for LoadFlat's in-memory ones.
	release func() error
}

// DeltaE returns the accuracy loss Δe = e_clustered − e_baseline (§3.2).
func (c *Composed) DeltaE() float64 { return c.FinalError - c.BaselineError }

// Mapped reports whether the model borrows its tables from a file mapping —
// i.e. it was loaded by LoadFile.
func (c *Composed) Mapped() bool { return c.release != nil }

// Close releases the file mapping behind an mmap-loaded model. After Close,
// the model and everything built from it — reinterpreted predictors,
// lowered hardware networks, borrowed canary inputs — must not be used:
// their table views die with the mapping. Close is a no-op (and safe to call
// any number of times) on models that own their memory.
func (c *Composed) Close() error {
	if c == nil || c.release == nil {
		return nil
	}
	rel := c.release
	c.release = nil
	return rel()
}

// Compose reinterprets net for in-memory execution. The input network is not
// modified; the returned Composed holds a retrained clone. The dataset's
// training split provides clustering statistics and retraining batches; the
// test split provides error estimates.
func Compose(net *nn.Network, ds *dataset.Dataset, cfg Config) (*Composed, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	work := nn.CloneNetwork(net)
	baseErr := work.ErrorRate(ds.TestX, ds.TestY)

	out := &Composed{Cfg: cfg, BaselineError: baseErr}
	best := nnSnapshot{err: 2} // sentinel worse than any real error rate
	opt := &nn.SGD{LR: cfg.LR, Momentum: cfg.Momentum}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		iterSp := cfg.Trace.Start("composer", "iteration",
			obs.L("iter", strconv.Itoa(iter)))
		plans, err := BuildPlans(work, ds, cfg, iter)
		if err != nil {
			return nil, err
		}
		re := NewReinterpreted(work, plans)
		estSp := cfg.Trace.Start("composer", "estimate_error")
		clErr := re.ErrorRate(ds.TestX, ds.TestY)
		estSp.End()
		out.History = append(out.History, IterationStats{
			Iteration:         iter,
			ClusteredError:    clErr,
			RetrainedEpochs:   out.TotalEpochs,
			AccuracyLossDelta: clErr - baseErr,
		})
		if clErr < best.err {
			best = nnSnapshot{net: nn.CloneNetwork(work), plans: plans, err: clErr}
		}
		if clErr-baseErr <= cfg.Epsilon {
			iterSp.End()
			break
		}
		if iter == cfg.MaxIterations-1 {
			iterSp.End()
			break
		}
		// Retrain from the clustered weights so the model adapts to the
		// codebook ("the model is retrained under the modified condition",
		// §3.2). Quantize in place, then run full-precision SGD.
		retrainSp := cfg.Trace.Start("composer", "retrain")
		QuantizeWeightsInPlace(work, plans)
		for e := 0; e < max(1, cfg.RetrainEpochs); e++ {
			ds.Batches(batch, func(x *tensor.Tensor, labels []int) {
				work.TrainBatch(x, labels, opt)
			})
			out.TotalEpochs++
		}
		retrainSp.End()
		iterSp.End()
	}
	out.Net = best.net
	out.Plans = best.plans
	out.FinalError = best.err
	if n := cfg.canaryCount(); n > 0 {
		out.Canaries = buildCanaries(out, ds, n)
	}
	return out, nil
}

// canaryCount resolves the Canaries knob: 0 means the default of 8,
// negative disables embedding.
func (c Config) canaryCount() int {
	if c.Canaries < 0 {
		return 0
	}
	if c.Canaries == 0 {
		return 8
	}
	return c.Canaries
}

type nnSnapshot struct {
	net   *nn.Network
	plans []*LayerPlan
	err   float64
}
