package composer

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// LayerKind classifies a layer for planning and accounting.
type LayerKind int

const (
	KindDense LayerKind = iota
	KindConv
	KindPool
	KindDropout
	KindRecurrent
)

func (k LayerKind) String() string {
	switch k {
	case KindDense:
		return "dense"
	case KindConv:
		return "conv"
	case KindPool:
		return "pool"
	case KindRecurrent:
		return "recurrent"
	}
	return "dropout"
}

// LayerPlan is the RNA configuration for one network layer (§3.3): the
// weight codebooks (one per conv output-channel group, a single one for a
// fully-connected layer), the input codebook its operands are encoded with,
// and the activation lookup table. Pooling and dropout layers carry a plan
// too so the accelerator can account for their neurons, but have no
// codebooks.
type LayerPlan struct {
	Index int
	Name  string
	Kind  LayerKind

	// WeightCodebooks holds sorted codebooks; ChannelCodebook maps each conv
	// output channel to its codebook index (always 0 for dense layers).
	WeightCodebooks [][]float32
	ChannelCodebook []int
	// InputCodebook holds the sorted representatives of this layer's inputs.
	InputCodebook []float32
	// ActTable approximates the layer activation; nil when the activation is
	// computed exactly (ReLU comparator, identity output layer).
	ActTable *quant.ActTable

	// Neurons is the number of logical neurons (RNA blocks before sharing)
	// and Edges the incoming edges per neuron.
	Neurons int
	Edges   int

	// WeightTrees/InputTree hold the hierarchical codebooks when the
	// composer ran with UseTreeCodebooks; they enable ReconfigurePlans to
	// re-target precision without re-clustering (§3.1's dynamic tuning).
	WeightTrees []*cluster.Tree
	InputTree   *cluster.Tree

	// Products holds the pre-composed fixed-point product tables of a
	// RAPIDNN2 artifact, one stride-indexed [len(wcb)·len(ucb)] table per
	// weight-codebook group, at ProductFracBits fractional bits. Populated
	// only by the flat loader, where each table is a read-only view into the
	// mapped file — rna.BuildHardwareNetwork hands it to each block's
	// constructor (rna.NewFuncRNAShared) to borrow instead of recomputing;
	// everything else leaves it nil. Borrowed tables are owned by the
	// artifact mapping: they stay valid until the loading Composed's Close.
	Products        [][]int64
	ProductFracBits uint

	// RawInputs is the network's raw feature count, set on the first compute
	// layer's plan; the accelerator charges the data-block read and virtual
	// encoding layer (§2.2) from it.
	RawInputs int
}

// W returns the weight-codebook cardinality (0 for non-compute layers).
func (p *LayerPlan) W() int {
	if len(p.WeightCodebooks) == 0 {
		return 0
	}
	w := 0
	for _, cb := range p.WeightCodebooks {
		if len(cb) > w {
			w = len(cb)
		}
	}
	return w
}

// U returns the input-codebook cardinality.
func (p *LayerPlan) U() int { return len(p.InputCodebook) }

// IsCompute reports whether the layer performs weighted accumulation.
func (p *LayerPlan) IsCompute() bool {
	return p.Kind == KindDense || p.Kind == KindConv || p.Kind == KindRecurrent
}

// BuildPlans runs parameter clustering (§3.1) for every layer of net:
// weights are clustered per layer (per output channel for convolutions,
// grouped when ShareFraction > 0), inputs are clustered from a sampled
// feed-forward over the training split, and activation tables are built over
// the observed pre-activation range clipped to the function's saturation
// domain. iter perturbs sampling seeds so successive composer iterations do
// not reuse identical samples.
//
// Layers cluster concurrently: the statistics pass is a serial feed-forward,
// but each layer's k-means runs over its own population with its own
// deterministic seed, so fanning the layers out across cores yields
// bit-identical plans in any schedule.
func BuildPlans(net *nn.Network, ds *dataset.Dataset, cfg Config, iter int) ([]*LayerPlan, error) {
	statsSp := cfg.Trace.Start("composer", "statistics")
	inputs, pres, err := sampleStatistics(net, ds, cfg, iter)
	statsSp.End()
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed + int64(iter)*7919
	plans := make([]*LayerPlan, len(net.Layers))
	errs := make([]error, len(net.Layers))
	var wg sync.WaitGroup
	for i, l := range net.Layers {
		wg.Add(1)
		go func(i int, l nn.Layer) {
			defer wg.Done()
			// Span per layer clustering; the tracer is concurrency-safe, so
			// the fan-out needs no coordination.
			sp := cfg.Trace.Start("composer", "cluster:"+l.Name())
			plans[i], errs[i] = buildLayerPlan(l, i, inputs[i], pres[i], cfg, seed)
			sp.End()
		}(i, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, p := range plans {
		if p.IsCompute() {
			p.RawInputs = net.InSize()
			break
		}
	}
	return plans, nil
}

// buildLayerPlan clusters one layer into its RNA configuration. It reads
// only the (frozen) layer weights and the pre-collected statistic samples,
// so any number of layers can build concurrently.
func buildLayerPlan(l nn.Layer, i int, inputs, pres []float32, cfg Config, seed int64) (*LayerPlan, error) {
	p := &LayerPlan{Index: i, Name: l.Name()}
	switch t := l.(type) {
	case *nn.Dense:
		p.Kind = KindDense
		p.Neurons = t.OutSize()
		p.Edges = t.InSize()
		cb, tree := buildCodebookTree(t.W.Value.Data(), cfg.WeightClusters, cfg, seed+int64(i))
		p.WeightCodebooks = [][]float32{cb}
		p.ChannelCodebook = []int{0}
		if tree != nil {
			p.WeightTrees = []*cluster.Tree{tree}
		}
	case *nn.Conv2D:
		p.Kind = KindConv
		p.Neurons = t.OutSize()
		p.Edges = t.Geom.InC * t.Geom.KH * t.Geom.KW
		p.WeightCodebooks, p.ChannelCodebook, p.WeightTrees = convCodebooks(t, cfg, seed+int64(i))
	case *nn.Recurrent:
		p.Kind = KindRecurrent
		p.Neurons = t.H
		// One RNA evaluates the neuron across all unrolled steps; every
		// step contributes its frame plus the fed-back hidden state.
		p.Edges = t.Steps * (t.In + t.H)
		// Input-to-hidden and hidden-to-hidden weights share one codebook
		// (they occupy the same crossbar).
		weights := append(append([]float32(nil), t.Wx.Value.Data()...), t.Wh.Value.Data()...)
		cb, tree := buildCodebookTree(weights, cfg.WeightClusters, cfg, seed+int64(i))
		p.WeightCodebooks = [][]float32{cb}
		p.ChannelCodebook = []int{0}
		if tree != nil {
			p.WeightTrees = []*cluster.Tree{tree}
		}
	case *nn.Pool2D:
		p.Kind = KindPool
		p.Neurons = t.OutSize()
		p.Edges = t.Geom.KH * t.Geom.KW
		return p, nil
	case *nn.Dropout:
		p.Kind = KindDropout
		return p, nil
	default:
		return nil, fmt.Errorf("composer: unsupported layer type %T", l)
	}
	// Input codebook from the sampled operand population.
	if len(inputs) == 0 {
		return nil, fmt.Errorf("composer: no input samples for layer %s", l.Name())
	}
	p.InputCodebook, p.InputTree = buildCodebookTree(inputs, cfg.InputClusters, cfg, seed+31*int64(i))
	// Activation table over the observed pre-activation range.
	p.ActTable = buildActTable(l, pres, cfg)
	return p, nil
}

// convCodebooks clusters each output channel's filter separately (§3.1:
// "the weights corresponding to different output channels are clustered
// separately... resulting in M different codebooks"). With sharing, adjacent
// channels are grouped and share one codebook (§5.6).
func convCodebooks(t *nn.Conv2D, cfg Config, seed int64) ([][]float32, []int, []*cluster.Tree) {
	m := t.OutC
	k := t.W.Value.Dim(1)
	groups := m - int(math.Round(float64(m)*cfg.ShareFraction))
	if groups < 1 {
		groups = 1
	}
	books := make([][]float32, groups)
	channelToBook := make([]int, m)
	var trees []*cluster.Tree
	if cfg.UseTreeCodebooks {
		trees = make([]*cluster.Tree, groups)
	}
	for g := 0; g < groups; g++ {
		lo := g * m / groups
		hi := (g + 1) * m / groups
		var samples []float32
		for ch := lo; ch < hi; ch++ {
			channelToBook[ch] = g
			samples = append(samples, t.W.Value.Data()[ch*k:(ch+1)*k]...)
		}
		cb, tree := buildCodebookTree(samples, cfg.WeightClusters, cfg, seed+int64(g))
		books[g] = cb
		if trees != nil {
			trees[g] = tree
		}
	}
	return books, channelToBook, trees
}

func buildActTable(l nn.Layer, pre []float32, cfg Config) *quant.ActTable {
	var act nn.Activation
	switch t := l.(type) {
	case *nn.Dense:
		act = t.Act
	case *nn.Conv2D:
		act = t.Act
	case *nn.Recurrent:
		act = t.Act
	default:
		return nil
	}
	switch act.(type) {
	case nn.Identity:
		return nil // output layer logits stay exact
	case nn.ReLU:
		if cfg.ReLUAsComparator {
			return nil // hardware comparator, exact
		}
	}
	lo, hi := observedRange(pre)
	slo, shi := quant.SaturationDomain(act, 1e-3, 64)
	if slo > lo {
		lo = slo
	}
	if shi < hi {
		hi = shi
	}
	if !(lo < hi) {
		lo, hi = -1, 1
	}
	return quant.BuildActTable(act, cfg.ActRows, lo, hi, cfg.ActMode)
}

func observedRange(pre []float32) (lo, hi float64) {
	if len(pre) == 0 {
		return -8, 8
	}
	lo, hi = float64(pre[0]), float64(pre[0])
	for _, v := range pre[1:] {
		if float64(v) < lo {
			lo = float64(v)
		}
		if float64(v) > hi {
			hi = float64(v)
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	return lo - 0.05*span, hi + 0.05*span
}

// sampleStatistics feeds a sampled slice of the training set forward and
// collects, for every layer, the operand values entering it and the
// pre-activation values it produces. The paper samples as little as 2 % of
// the training data (§3.1).
func sampleStatistics(net *nn.Network, ds *dataset.Dataset, cfg Config, iter int) (inputs, pres [][]float32, err error) {
	total := ds.TrainX.Dim(0)
	n := int(float64(total) * cfg.SampleFrac)
	if n < 32 {
		n = min(32, total)
	}
	in := ds.InSize()
	x := tensor.FromSlice(ds.TrainX.Data()[:n*in], n, in)

	inputs = make([][]float32, len(net.Layers))
	pres = make([][]float32, len(net.Layers))
	cur := x
	for i, l := range net.Layers {
		switch l.(type) {
		case *nn.Dense, *nn.Conv2D, *nn.Recurrent:
			inputs[i] = cluster.Sample(cur.Data(), sampleKeep(cur.Len()), 256, cfg.Seed+int64(1000*iter+i))
		}
		cur = l.Forward(cur, false)
		switch t := l.(type) {
		case *nn.Dense:
			pres[i] = cluster.Sample(t.PreActivations().Data(), sampleKeep(t.PreActivations().Len()), 256, cfg.Seed+int64(2000*iter+i))
		case *nn.Conv2D:
			pres[i] = cluster.Sample(t.PreActivations().Data(), sampleKeep(t.PreActivations().Len()), 256, cfg.Seed+int64(2000*iter+i))
		case *nn.Recurrent:
			pres[i] = cluster.Sample(t.PreActivations().Data(), sampleKeep(t.PreActivations().Len()), 256, cfg.Seed+int64(2000*iter+i))
			// The fed-back hidden state shares the input FIFO, so its values
			// join the input-codebook population.
			hidden := t.HiddenStates()
			inputs[i] = append(inputs[i],
				cluster.Sample(hidden, sampleKeep(len(hidden)), 256, cfg.Seed+int64(3000*iter+i))...)
		}
	}
	return inputs, pres, nil
}

// sampleKeep bounds per-layer statistic populations so k-means stays fast on
// wide layers while keeping every value for small ones.
func sampleKeep(n int) float64 {
	const budget = 20000
	if n <= budget {
		return 1
	}
	return float64(budget) / float64(n)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// QuantizeWeightsInPlace snaps every compute layer's weights to its codebook
// values — the "replace all parameters with their closest centroids" step of
// Fig. 6b, applied before each retraining round.
func QuantizeWeightsInPlace(net *nn.Network, plans []*LayerPlan) {
	for i, l := range net.Layers {
		p := plans[i]
		switch t := l.(type) {
		case *nn.Dense:
			cb := p.WeightCodebooks[0]
			data := t.W.Value.Data()
			for j, v := range data {
				data[j] = cluster.Quantize(cb, v)
			}
		case *nn.Conv2D:
			k := t.W.Value.Dim(1)
			data := t.W.Value.Data()
			for ch := 0; ch < t.OutC; ch++ {
				cb := p.WeightCodebooks[p.ChannelCodebook[ch]]
				row := data[ch*k : (ch+1)*k]
				for j, v := range row {
					row[j] = cluster.Quantize(cb, v)
				}
			}
		case *nn.Recurrent:
			cb := p.WeightCodebooks[0]
			for _, w := range []*nn.Param{t.Wx, t.Wh} {
				data := w.Value.Data()
				for j, v := range data {
					data[j] = cluster.Quantize(cb, v)
				}
			}
		}
	}
}

// buildCodebook clusters a scalar population into at most k representatives,
// either with flat k-means or by growing a hierarchical tree and taking the
// deepest level within the budget (§3.1's reconfigurable codebooks).
func buildCodebook(samples []float32, k int, cfg Config, seed int64) []float32 {
	cb, _ := buildCodebookTree(samples, k, cfg, seed)
	return cb
}

// buildCodebookTree additionally returns the tree when tree codebooks are
// enabled, so plans can be reconfigured to shallower levels later.
func buildCodebookTree(samples []float32, k int, cfg Config, seed int64) ([]float32, *cluster.Tree) {
	if cfg.LinearCodebooks {
		return linearCodebook(samples, k), nil
	}
	if !cfg.UseTreeCodebooks {
		return cluster.KMeans(samples, k, cluster.Options{Seed: seed}), nil
	}
	depth := 1
	for (1 << (depth + 1)) <= k {
		depth++
	}
	tree := cluster.BuildTree(samples, depth, cluster.Options{Seed: seed})
	return tree.CodebookFor(k), tree
}

// ReconfigurePlans re-targets tree-codebook plans to new cluster budgets by
// selecting shallower (or equal) levels of the stored trees — the §3.3
// "adjustable parameter [that] selects the level of the codebook tree"
// without re-running k-means. It returns fresh plans; the inputs are not
// modified. Plans composed without UseTreeCodebooks are rejected.
func ReconfigurePlans(plans []*LayerPlan, maxW, maxU int) ([]*LayerPlan, error) {
	if maxW < 1 || maxU < 1 {
		return nil, fmt.Errorf("composer: reconfigure budgets w=%d u=%d", maxW, maxU)
	}
	out := make([]*LayerPlan, len(plans))
	for i, p := range plans {
		np := *p
		if p.IsCompute() {
			if len(p.WeightTrees) == 0 || p.InputTree == nil {
				return nil, fmt.Errorf("composer: plan %s has no codebook trees (compose with UseTreeCodebooks)", p.Name)
			}
			np.WeightCodebooks = make([][]float32, len(p.WeightCodebooks))
			for b := range p.WeightCodebooks {
				np.WeightCodebooks[b] = p.WeightTrees[b].CodebookFor(maxW)
			}
			np.InputCodebook = p.InputTree.CodebookFor(maxU)
		}
		out[i] = &np
	}
	return out, nil
}

// linearCodebook spreads k representatives uniformly over the sample range —
// the quantization-grid baseline the clustering approach improves on.
func linearCodebook(samples []float32, k int) []float32 {
	lo, hi := samples[0], samples[0]
	for _, v := range samples {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		return []float32{lo}
	}
	if k == 1 {
		return []float32{(lo + hi) / 2}
	}
	cb := make([]float32, k)
	for i := range cb {
		cb[i] = lo + (hi-lo)*float32(i)/float32(k-1)
	}
	return cb
}
