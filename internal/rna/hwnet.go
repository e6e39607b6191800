package rna

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// HardwareNetwork executes a composed model end-to-end through functional
// RNA blocks: every neuron's weighted accumulation runs as parallel counting
// plus NOR addition, every activation and encoding as an NDCAM search. It
// is the hardware-in-the-loop validation of the whole RAPIDNN stack — the
// software reinterpreted model predicts its behaviour, and tests assert the
// two agree.
//
// Its Stats charge every NOR the substrate would fire — hundreds of
// thousands of cycles per CIFAR image — but the CPU does not walk them: the
// adder is priced from its operand count, and a neuron's work follows its
// edges. The per-input evaluation is re-entrant (every FuncRNA is read-only
// during inference), so InferBatchStats fans a batch out across cores while
// keeping predictions and Stats totals bit-identical to the serial path.
type HardwareNetwork struct {
	dev    device.Params
	layers []*hwLayer
	inSize int
	// Workers bounds the concurrency of InferBatchStats/ErrorRate; 0 (the
	// default) means GOMAXPROCS. At 1 the calling goroutine classifies the
	// whole batch.
	Workers int
	// Trace, when set, records one span per batch and one per layer per
	// input on the "rna" track. Set it before inference begins; tracing a
	// network mid-flight is a race. Nil (the default) costs one pointer
	// check per layer and allocates nothing.
	Trace *obs.Tracer
	// nobs is the optional registry instrumentation installed by Instrument;
	// nil means uninstrumented.
	nobs *netObs
	// faultCnt accumulates the fault and protection events of every RNA
	// block (concurrent-safe).
	faultCnt fault.Counters
}

type hwLayer struct {
	kind composer.LayerKind
	plan *composer.LayerPlan
	// skip marks a shape-preserving residual layer: neuron n adds input
	// position n back before encoding.
	skip bool
	// traceName is the span name of this layer, fixed at build time so the
	// traced path formats nothing per input.
	traceName string

	// Compute layers (dense, conv, recurrent) are lowered into one layout:
	// len(chanGroup) output channels over len(tapEnd) positions, neuron
	// n = ch·positions + p. rnas holds one functional RNA per codebook group
	// (all channels of a group share tables); chanGroup and biasFixed are per
	// channel, the bias in the product tables' fixed-point format.
	rnas      []*FuncRNA
	chanGroup []int
	biasFixed []int64
	// Positions with the same in-bounds taps share a border class;
	// wOff[ch·classes + classOf[p]] is channel ch's weight-offset row over
	// them, each tap's weight-codebook index times nU. A conv layer's taps
	// hold every position's input positions in (c, ky, kx) order, position
	// p's ending at tapEnd[p]; a dense or recurrent layer has one position
	// whose window is its whole input, so taps is nil and nothing is
	// gathered.
	wOff    [][]int32
	classOf []int32
	taps    []int32
	tapEnd  []int32
	isLogit bool

	// Pooling layers: output n reads poolIn[n·poolK : (n+1)·poolK]. Every
	// window of a layer costs the same — a max-pool window refills and
	// searches a CAM, an avg-pool window is one poolK-operand addition — so
	// poolStats is priced once at lowering.
	poolIn    []int32
	poolK     int
	poolAvg   bool
	poolCB    []float32 // codebook the pooled values are encoded with
	poolStats crossbar.Stats

	// Recurrent layers (§4.3): the hidden state re-enters through the input
	// FIFO, re-encoded onto the layer's own codebook by rnnLoop; the final
	// step encodes onto the consumer codebook through rnas[0]. Hidden neuron
	// j's row wOff[j] covers the In frame taps and then the H state taps.
	rnnIn, rnnH, rnnSteps int
	rnnLoop               *FuncRNA
}

// BuildHardwareNetwork lowers a quantized network and its plans into
// functional hardware. qnet must be the reinterpreted clone (weights already
// snapped to the codebooks); plans must come from the same composition.
//
// Every RNA block is configured with its plan's ProductTable. Plans loaded
// from a RAPIDNN2 artifact hand out views into the mapped file, so the
// crossbar configuration is borrowed, not recomputed, and the built network
// shares the plans' lifetime: it must not be used after the owning
// composer.Composed is Closed.
//
// Lowering checks everything inference relies on — each layer is fed exactly
// the features its geometry indexes, and the network ends in a dense or conv
// logit layer — so classifying a row of InSize features cannot fail.
func BuildHardwareNetwork(qnet *nn.Network, plans []*composer.LayerPlan, dev device.Params) (*HardwareNetwork, error) {
	if len(qnet.Layers) != len(plans) {
		return nil, fmt.Errorf("rna: %d layers vs %d plans", len(qnet.Layers), len(plans))
	}
	h := &HardwareNetwork{dev: dev, inSize: qnet.InSize()}
	width := h.inSize // features the hardware feeds the next layer
	for i, l := range qnet.Layers {
		p, next := plans[i], nextCodebook(plans, i)
		var hl *hwLayer
		switch t := l.(type) {
		case *nn.Dense:
			hl = buildDenseHW(t, p, next, &h.dev)
		case *nn.Conv2D:
			hl = buildConvHW(t, p, next, &h.dev)
		case *nn.Recurrent:
			hl = buildRecurrentHW(t, p, next, &h.dev)
		case *nn.Pool2D:
			hl = buildPoolHW(t, p, next, &h.dev)
		case *nn.Dropout:
			continue // identity at inference; no hardware
		default:
			return nil, fmt.Errorf("rna: hardware path cannot lower %T", l)
		}
		// The executor slices and gathers a layer's input by the layer's own
		// geometry (a recurrent layer cuts Steps frames of In features), so a
		// feed of any other width would index out of bounds.
		if l.InSize() != width {
			return nil, fmt.Errorf("rna: layer %s wants %d input features, its feed provides %d", l.Name(), l.InSize(), width)
		}
		width = l.OutSize()
		hl.traceName = l.Name()
		h.layers = append(h.layers, hl)
	}
	if len(h.layers) == 0 {
		return nil, fmt.Errorf("rna: empty network")
	}
	last := h.layers[len(h.layers)-1]
	if !last.plan.IsCompute() {
		return nil, fmt.Errorf("rna: final layer must be a compute layer")
	}
	if last.kind == composer.KindRecurrent {
		// The class comparator takes one raw sum per class; a recurrent
		// layer only ever emits encoded hidden states.
		return nil, fmt.Errorf("rna: final layer %s is recurrent; the class comparator needs a dense or conv logit layer", last.traceName)
	}
	last.isLogit = true
	return h, nil
}

// nextCodebook finds the input codebook of the consuming compute layer —
// the encoder table of layer i's RNAs. The final layer has no consumer; its
// raw logit sums feed the class comparator instead, so its blocks get a
// one-entry placeholder encoder they never search.
func nextCodebook(plans []*composer.LayerPlan, i int) []float32 {
	for j := i + 1; j < len(plans); j++ {
		if plans[j].IsCompute() {
			return plans[j].InputCodebook
		}
	}
	return []float32{0}
}

// fixedBias converts a neuron's bias to the product tables' fixed-point
// format, the form AccumulateBiasScratch adds it in.
func fixedBias(b float32) int64 { return quant.ToFixed(float64(b), composer.FlatProductFracBits) }

// newComputeLayer lowers the parts every compute layer shares: one RNA per
// codebook group, configured with the group's product table, per-channel
// biases, and a weight-offset row of widths[cls] taps for every (channel,
// border class). It leaves the layer one position of class 0, whose window
// is the whole input; the caller fills the rows and biases.
func newComputeLayer(p *composer.LayerPlan, next []float32, dev *device.Params, chans int, widths []int) *hwLayer {
	hl := &hwLayer{kind: p.Kind, plan: p, chanGroup: make([]int, chans), biasFixed: make([]int64, chans),
		classOf: []int32{0}, tapEnd: []int32{int32(widths[0])}}
	for g, wcb := range p.WeightCodebooks {
		hl.rnas = append(hl.rnas, NewFuncRNAShared(dev, wcb, p.InputCodebook, p.ActTable, next, p.ProductTable(g)))
	}
	for range chans {
		for _, w := range widths {
			hl.wOff = append(hl.wOff, make([]int32, w))
		}
	}
	return hl
}

func buildDenseHW(t *nn.Dense, p *composer.LayerPlan, next []float32, dev *device.Params) *hwLayer {
	in, out := t.InSize(), t.OutSize()
	hl := newComputeLayer(p, next, dev, out, []int{in})
	hl.skip = t.Skip
	wcb, nU := p.WeightCodebooks[0], len(p.InputCodebook)
	for n, row := range hl.wOff {
		hl.biasFixed[n] = fixedBias(t.B.Value.At(0, n))
		for i := range row {
			row[i] = int32(cluster.Assign(wcb, t.W.Value.At(i, n)) * nU)
		}
	}
	return hl
}

func buildConvHW(t *nn.Conv2D, p *composer.LayerPlan, next []float32, dev *device.Params) *hwLayer {
	g := t.Geom
	// span is the kernel offsets [lo, hi) at output coordinate o that land
	// inside an input extent of n (zero padding produces no tap at all).
	span := func(o, k, n int) (int, int) {
		lo := max(0, g.Pad-o*g.Stride)
		return lo, max(lo, min(k, n+g.Pad-o*g.Stride))
	}
	// A border class is the tap rectangle its positions keep; each position
	// lists its window's input positions once, shared by every channel.
	type class struct{ y0, y1, x0, x1 int }
	var classes []class
	var widths []int
	var classOf, taps, tapEnd []int32
	for oy := 0; oy < g.OutH(); oy++ {
		y0, y1 := span(oy, g.KH, g.InH)
		for ox := 0; ox < g.OutW(); ox++ {
			x0, x1 := span(ox, g.KW, g.InW)
			key := class{y0, y1, x0, x1}
			cls := slices.Index(classes, key)
			if cls < 0 {
				cls = len(classes)
				classes = append(classes, key)
				widths = append(widths, g.InC*(y1-y0)*(x1-x0))
			}
			classOf = append(classOf, int32(cls))
			for c := 0; c < g.InC; c++ {
				for ky := y0; ky < y1; ky++ {
					for kx := x0; kx < x1; kx++ {
						taps = append(taps, int32((c*g.InH+oy*g.Stride+ky-g.Pad)*g.InW+ox*g.Stride+kx-g.Pad))
					}
				}
			}
			tapEnd = append(tapEnd, int32(len(taps)))
		}
	}
	hl := newComputeLayer(p, next, dev, t.OutC, widths)
	hl.skip, hl.classOf, hl.taps, hl.tapEnd = t.Skip, classOf, taps, tapEnd
	nU := len(p.InputCodebook)
	for ch := range t.OutC {
		hl.chanGroup[ch] = p.ChannelCodebook[ch]
		hl.biasFixed[ch] = fixedBias(t.B.Value.At(0, ch))
		wcb := p.WeightCodebooks[hl.chanGroup[ch]]
		for cls, k := range classes {
			row := hl.wOff[ch*len(classes)+cls][:0] // filled in place
			for c := 0; c < g.InC; c++ {
				for ky := k.y0; ky < k.y1; ky++ {
					for kx := k.x0; kx < k.x1; kx++ {
						row = append(row, int32(cluster.Assign(wcb, t.W.Value.At(ch, (c*g.KH+ky)*g.KW+kx))*nU))
					}
				}
			}
		}
	}
	return hl
}

func buildRecurrentHW(t *nn.Recurrent, p *composer.LayerPlan, next []float32, dev *device.Params) *hwLayer {
	hl := newComputeLayer(p, next, dev, t.H, []int{t.In + t.H})
	hl.rnnIn, hl.rnnH, hl.rnnSteps = t.In, t.H, t.Steps
	// rnas[0] encodes the final hidden state for the consumer; rnnLoop
	// re-encodes intermediate states onto the layer's own codebook. Both
	// share the (wcb, ucb) pair, so one product table serves both.
	wcb, nU := p.WeightCodebooks[0], len(p.InputCodebook)
	hl.rnnLoop = NewFuncRNAShared(dev, wcb, p.InputCodebook, p.ActTable, p.InputCodebook, hl.rnas[0].products)
	for j, row := range hl.wOff {
		hl.biasFixed[j] = fixedBias(t.B.Value.At(0, j))
		for i := 0; i < t.In; i++ {
			row[i] = int32(cluster.Assign(wcb, t.Wx.Value.At(i, j)) * nU)
		}
		for k := 0; k < t.H; k++ {
			row[t.In+k] = int32(cluster.Assign(wcb, t.Wh.Value.At(k, j)) * nU)
		}
	}
	return hl
}

func buildPoolHW(t *nn.Pool2D, p *composer.LayerPlan, next []float32, dev *device.Params) *hwLayer {
	g := t.Geom
	k := g.KH * g.KW
	hl := &hwLayer{kind: p.Kind, plan: p, poolK: k, poolAvg: t.Kind == nn.AvgPool, poolCB: next, poolStats: poolCAMStats(*dev, k)}
	if hl.poolAvg {
		hl.poolStats = crossbar.Price(dev, k, sumWidth)
	}
	// Pooling windows are uniform (no padding), so they pack back to back.
	hl.poolIn = make([]int32, 0, t.OutSize()*k)
	for c := 0; c < g.InC; c++ {
		for oy := 0; oy < g.OutH(); oy++ {
			for ox := 0; ox < g.OutW(); ox++ {
				for ky := 0; ky < g.KH; ky++ {
					for kx := 0; kx < g.KW; kx++ {
						hl.poolIn = append(hl.poolIn, int32((c*g.InH+oy*g.Stride+ky)*g.InW+ox*g.Stride+kx))
					}
				}
			}
		}
	}
	return hl
}

// netObs is the registry-side view of a hardware network: inference and
// substrate counters whose observations are atomic bumps.
type netObs struct {
	infers *obs.Counter
	cycles *obs.Counter
	nors   *obs.Counter
	reads  *obs.Counter
	writes *obs.Counter
	energy *obs.FloatCounter
}

// Instrument registers this network's inference and substrate counters in
// reg (under the given labels, e.g. a model name) and starts folding every
// successful InferBatchStats into them. Call it once, before inference
// begins.
func (h *HardwareNetwork) Instrument(reg *obs.Registry, labels ...obs.Label) {
	h.nobs = &netObs{
		infers: reg.Counter("rapidnn_rna_inferences_total", "Inputs classified through the hardware path.", labels...),
		cycles: reg.Counter("rapidnn_rna_substrate_cycles_total", "Substrate cycles spent by the hardware path.", labels...),
		nors:   reg.Counter("rapidnn_rna_substrate_nors_total", "NOR gate evaluations spent by the hardware path.", labels...),
		reads:  reg.Counter("rapidnn_rna_substrate_reads_total", "Crossbar reads spent by the hardware path.", labels...),
		writes: reg.Counter("rapidnn_rna_substrate_writes_total", "Crossbar writes spent by the hardware path.", labels...),
		energy: reg.FloatCounter("rapidnn_rna_substrate_energy_joules_total", "Substrate energy spent by the hardware path.", labels...),
	}
}

// foldObs bumps the registry counters for n classified inputs; a nop on an
// uninstrumented network.
func (h *HardwareNetwork) foldObs(n int, st crossbar.Stats) {
	o := h.nobs
	if o == nil {
		return
	}
	o.infers.Add(uint64(n))
	o.cycles.Add(uint64(st.Cycles))
	o.nors.Add(uint64(st.NORs))
	o.reads.Add(uint64(st.Reads))
	o.writes.Add(uint64(st.Writes))
	o.energy.Add(st.EnergyJ)
}

// inferOne is the re-entrant evaluation of one input of h.inSize features:
// it only reads the shared network configuration (every FuncRNA is
// evaluated in s, bias passed by value) and returns the input's predicted
// class and substrate activity instead of accumulating shared state. All
// intermediate state — the ping-pong activation buffers, the edge gather
// buffer, the recurrent frame/state buffers and every per-neuron working set
// — lives in s, so a worker that reuses one Scratch classifies inputs
// without allocating in steady state. s must not be shared between
// concurrent inferOne calls. BuildHardwareNetwork has checked every layer's
// feed width and the logit layer, so nothing here can fail.
func (h *HardwareNetwork) inferOne(x []float32, s *Scratch) (int, crossbar.Stats) {
	var stats crossbar.Stats
	// Virtual layer (§2.2): encode the raw input onto the first compute
	// layer's codebook. enc/nxt ping-pong between the scratch's two
	// activation buffers, one swap per layer.
	first := h.layers[0]
	enc := resizeInts(s.actA, len(x))
	nxt := s.actB
	for i, v := range x {
		enc[i] = cluster.Assign(first.plan.InputCodebook, v)
	}
	best, bestV := 0, math.Inf(-1)
	for _, hl := range h.layers {
		// One span per layer per input; names are fixed at build time so the
		// traced path formats nothing.
		var sp obs.Span
		if h.Trace != nil {
			sp = h.Trace.Start("rna", hl.traceName)
		}
		switch {
		case hl.kind == composer.KindRecurrent:
			inCB := hl.plan.InputCodebook
			// The zero initial state enters as the codebook's nearest-to-zero
			// representative.
			hState := resizeInts(s.rnnState, hl.rnnH)
			hNext := resizeInts(s.rnnNext, hl.rnnH)
			feed := resizeInts(s.rnnFeed, hl.rnnIn+hl.rnnH)
			zeroIdx := cluster.Assign(inCB, 0)
			for j := range hState {
				hState[j] = zeroIdx
			}
			for step := 0; step < hl.rnnSteps; step++ {
				// Neither the frame nor the state changes within a step, so
				// every hidden neuron of the step reads one feed.
				copy(feed, enc[step*hl.rnnIn:(step+1)*hl.rnnIn])
				copy(feed[hl.rnnIn:], hState)
				r := hl.rnnLoop
				if step == hl.rnnSteps-1 {
					r = hl.rnas[0]
				}
				for j := range hNext {
					pre, st := r.AccumulateBiasScratch(hl.wOff[j], feed, hl.biasFixed[j], s)
					stats = addStats(stats, st)
					hNext[j] = r.encodeValue(r.activate(pre))
				}
				hState, hNext = hNext, hState
			}
			s.rnnState, s.rnnNext, s.rnnFeed = hState, hNext, feed
			nxt = resizeInts(nxt, hl.rnnH)
			copy(nxt, hState)
		case hl.poolAvg:
			// Average pooling (§4.2.1): the crossbar sums the decoded window
			// values in memory, exactly modulo 2^sumWidth, so the sum is
			// native and the addition's Stats are the window price set at
			// lowering. The division by the window size is normalized into
			// the weights offline, so here it is a fixed reciprocal multiply;
			// the result re-encodes through the AM.
			nxt = resizeInts(nxt, len(hl.poolIn)/hl.poolK)
			inv := 1.0 / float64(hl.poolK)
			for n := range nxt {
				var sum uint32
				for _, pos := range hl.poolIn[n*hl.poolK : (n+1)*hl.poolK] {
					sum += uint32(quant.ToFixed(float64(hl.poolCB[enc[pos]]), composer.FlatProductFracBits))
				}
				stats = addStats(stats, hl.poolStats)
				mean := quant.FromFixed(int64(int32(sum)), composer.FlatProductFracBits) * inv
				nxt[n] = cluster.Assign(hl.poolCB, float32(mean))
			}
		case hl.kind == composer.KindPool:
			// Encoded values compare like their codebook values (sorted
			// levels), so max pooling is a max over indices — realized by the
			// encoder NDCAM search in hardware (§4.2.1). The window's
			// substrate activity — refilling the pooling CAM plus one search —
			// is charged per window so pooling-layer work reaches the totals.
			nxt = resizeInts(nxt, len(hl.poolIn)/hl.poolK)
			for n := range nxt {
				win := hl.poolIn[n*hl.poolK : (n+1)*hl.poolK]
				top := enc[win[0]]
				for _, pos := range win[1:] {
					top = max(top, enc[pos])
				}
				nxt[n] = top
				stats = addStats(stats, hl.poolStats)
			}
		default:
			// Dense and conv neurons, channel-major: neuron n = ch·positions
			// + p reads position p's window through the weight-offset row of
			// its border class for channel ch. A conv layer gathers all its
			// windows once per input; a dense layer's one window is enc. The
			// logit layer, always the last one, keeps its raw fixed-point sums
			// for the argmax comparator; every other layer activates and
			// encodes onto its consumer's codebook.
			in := enc
			if hl.taps != nil {
				in = resizeInts(s.gather, len(hl.taps))
				for i, pos := range hl.taps {
					in[i] = enc[pos]
				}
				s.gather = in
			}
			inCB, classes := hl.plan.InputCodebook, len(hl.wOff)/len(hl.chanGroup)
			nxt = resizeInts(nxt, len(hl.chanGroup)*len(hl.tapEnd))
			for ch, group := range hl.chanGroup {
				r, bias, rows := hl.rnas[group], hl.biasFixed[ch], hl.wOff[ch*classes:(ch+1)*classes]
				lo := int32(0)
				for p, hi := range hl.tapEnd {
					pre, st := r.AccumulateBiasScratch(rows[hl.classOf[p]], in[lo:hi], bias, s)
					n := ch*len(hl.tapEnd) + p
					lo = hi
					stats = addStats(stats, st)
					switch {
					case hl.isLogit:
						if pre > bestV {
							best, bestV = n, pre
						}
					case hl.skip:
						// Residual: the skipped encoded input re-enters through
						// the input FIFO and adds before encoding (§4.3).
						nxt[n] = r.encodeValue(r.activate(pre) + float64(inCB[enc[n]]))
					default:
						nxt[n] = r.encodeValue(r.activate(pre))
					}
				}
			}
		}
		enc, nxt = nxt, enc
		sp.End()
	}
	// Hand the (possibly grown) buffers back for the next input.
	s.actA, s.actB = enc, nxt
	return best, stats
}

// poolCAMStats is the substrate activity one max-pooling window accrues on
// the encoder NDCAM: one CAM write per window entry and one
// nearest-to-+∞ search over the refilled rows, priced exactly like
// ndcam.Write and ndcam.Search on a 16-bit CAM holding the window.
func poolCAMStats(dev device.Params, window int) crossbar.Stats {
	const poolStages = (16 + 7) / 8 // pooling reuses the 16-bit encoder CAM
	return crossbar.Stats{
		Writes:  int64(window),
		Cycles:  int64(window) + int64(poolStages*dev.AMSearchCycles),
		EnergyJ: float64(window)*dev.AMWriteEnergy + dev.AMSearchEnergy*float64(window)/float64(dev.AMRows),
	}
}

// workers resolves the concurrency knob: h.Workers if set, else GOMAXPROCS,
// never more than the batch size.
func (h *HardwareNetwork) workers(n int) int {
	w := h.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// InSize returns the number of input features the network consumes.
func (h *HardwareNetwork) InSize() int { return h.inSize }

// InferBatchStats classifies every row of x through the hardware path and
// returns the predictions in row order together with the batch's substrate
// activity. The batch fans out over h.Workers shares (default GOMAXPROCS),
// one of them run by the calling goroutine; the per-input activity is folded
// into the returned total in row order, so predictions and totals are
// bit-identical to evaluating the rows one by one. It reads only the shared
// network configuration, so any number of InferBatchStats calls may run
// concurrently on one HardwareNetwork — a serving batcher aggregates the
// returned Stats under its own lock. It errors only on a batch whose rows are
// not InSize features wide.
func (h *HardwareNetwork) InferBatchStats(x *tensor.Tensor) ([]int, crossbar.Stats, error) {
	var total crossbar.Stats
	if x == nil {
		// The tensor package cannot represent a zero-row batch, so a serving
		// layer hands an empty batch in as nil: no work, no activity.
		return nil, total, nil
	}
	n := x.Dim(0)
	if x.Len() != n*h.inSize {
		return nil, total, fmt.Errorf("rna: batch of %d rows holds %d features, want %d per row", n, x.Len(), h.inSize)
	}
	var sp obs.Span
	if h.Trace != nil {
		sp = h.Trace.Start("rna", "infer_batch", obs.L("rows", strconv.Itoa(n)))
	}
	data := x.Data()
	preds := make([]int, n)
	stats := make([]crossbar.Stats, n)
	// Each share claims rows one at a time and owns one Scratch for all of
	// them: every per-input buffer is reused across its rows with no sharing
	// between shares, and the arena goes back to the pool when the batch
	// drains.
	var claimed atomic.Int64
	share := func() {
		s := scratchPool.Get().(*Scratch)
		for i := int(claimed.Add(1) - 1); i < n; i = int(claimed.Add(1) - 1) {
			preds[i], stats[i] = h.inferOne(data[i*h.inSize:(i+1)*h.inSize], s)
		}
		scratchPool.Put(s)
	}
	var wg sync.WaitGroup
	for w := h.workers(n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			share()
		}()
	}
	share()
	wg.Wait()
	sp.End()
	// Deterministic merge: fold per-input stats in input order, exactly the
	// sequence the serial path would have produced.
	for _, s := range stats {
		total = addStats(total, s)
	}
	h.foldObs(n, total)
	return preds, total, nil
}

// eachRNA visits every functional RNA block of the network — including
// recurrent loop blocks — in a fixed layer order, so seeded injection draws
// identical fault maps across runs.
func (h *HardwareNetwork) eachRNA(fn func(*FuncRNA)) {
	for _, hl := range h.layers {
		for _, r := range hl.rnas {
			fn(r)
		}
		if hl.rnnLoop != nil {
			fn(hl.rnnLoop)
		}
	}
}

// InjectFaults draws the seeded fault scenario described by cfg over every
// RNA block — pinned product cells, per-read transient flips, failed NDCAM
// rows — and reports what was drawn. The injection is overlay-based: the
// pristine configuration is never mutated, ClearFaults reverts it exactly,
// and re-injecting replaces the previous map, so one composed network can
// sweep many fault configurations without re-lowering. Must not run
// concurrently with inference.
func (h *HardwareNetwork) InjectFaults(cfg fault.Config) (fault.Report, error) {
	if err := cfg.Validate(); err != nil {
		return fault.Report{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := fault.Report{TransientRate: cfg.TransientRate}
	h.eachRNA(func(r *FuncRNA) {
		sub := r.injectFaults(cfg, rng, &h.faultCnt)
		rep.StuckCells += sub.StuckCells
		rep.StuckBits += sub.StuckBits
		rep.CAMRowsFailed += sub.CAMRowsFailed
	})
	return rep, nil
}

// ClearFaults drops every block's fault overlay, restoring the pristine
// network bit-exactly. The protection configuration is retained. Must not
// run concurrently with inference.
func (h *HardwareNetwork) ClearFaults() {
	h.eachRNA(func(r *FuncRNA) { r.ClearFaults() })
}

// SetProtection switches the protection mechanisms on every block and
// re-derives the spare-row repair for the current fault map (injection and
// protection compose in either order). Must not run concurrently with
// inference.
func (h *HardwareNetwork) SetProtection(p fault.Protection) {
	h.eachRNA(func(r *FuncRNA) { r.SetProtection(p, &h.faultCnt) })
}

// FaultCounters exposes the network's fault and protection event counters.
// Callers typically Reset before a measurement and Snapshot after.
func (h *HardwareNetwork) FaultCounters() *fault.Counters { return &h.faultCnt }

// ErrorRate classifies every row of x through InferBatchStats and returns
// the misclassification fraction against labels, one label per row.
func (h *HardwareNetwork) ErrorRate(x *tensor.Tensor, labels []int) (float64, error) {
	n := x.Dim(0)
	if len(labels) != n {
		return 0, fmt.Errorf("rna: %d labels for %d rows", len(labels), n)
	}
	preds, _, err := h.InferBatchStats(x)
	if err != nil {
		return 0, err
	}
	wrong := 0
	for i, pred := range preds {
		if pred != labels[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(n), nil
}

func addStats(a, b crossbar.Stats) crossbar.Stats {
	a.Cycles += b.Cycles
	a.NORs += b.NORs
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.EnergyJ += b.EnergyJ
	return a
}
