package rna

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// HardwareNetwork executes a composed model end-to-end through functional
// RNA blocks: every neuron's weighted accumulation runs as parallel counting
// plus gate-level NOR addition, every activation and encoding as an NDCAM
// search. It is the hardware-in-the-loop validation of the whole RAPIDNN
// stack — the software reinterpreted model predicts its behaviour, and tests
// assert the two agree.
//
// It is deliberately built for fidelity, not speed: classifying one CIFAR
// image simulates hundreds of thousands of NOR cycles. Use small models —
// or batch them: the per-input evaluation is re-entrant (every FuncRNA is
// read-only during inference), so InferBatchStats fans the batch out across
// cores while keeping predictions and Stats totals bit-identical to the
// serial path.
type HardwareNetwork struct {
	dev    device.Params
	layers []*hwLayer
	inSize int
	// Workers bounds the concurrency of InferBatchStats/ErrorRate; 0 (the
	// default) means GOMAXPROCS. Set to 1 to force the serial path.
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
	skip bool
	// traceName is the span name of this layer, fixed at build time so the
	// traced path formats nothing per input.
	traceName string

	// Compute layers: one functional RNA per codebook group (all neurons of
	// a group share tables; their per-edge weight indices differ).
	rnas []*FuncRNA
	// weightIdx[n][i] is the weight-codebook index of neuron n's edge i;
	// edgeOf[n][i] is the input-feature position edge i reads. Both are
	// views into one flat backing array per layer (see flattenRows), so a
	// layer's neurons read contiguous stride-indexed memory instead of
	// chasing one heap object per neuron.
	weightIdx [][]int
	edgeOf    [][]int
	groupOf   []int // codebook group per neuron
	bias      []float32
	// biasFixed is bias pre-converted to the RNAs' fixed-point domain, so
	// the re-entrant evaluation passes it straight to AccumulateBiasScratch.
	biasFixed []int64
	// skipPos[n] is the input position a residual neuron adds back.
	skipPos []int
	isLogit bool

	// Pooling layers.
	poolWindows [][]int // input positions per output
	poolAvg     bool
	poolCB      []float32 // codebook the pooled values are encoded with

	// Recurrent layers (§4.3): the hidden state re-enters through the input
	// FIFO, re-encoded onto the layer's own codebook by rnnLoop; the final
	// step encodes onto the consumer codebook through rnas[0].
	rnnIn, rnnH, rnnSteps int
	rnnLoop               *FuncRNA
}

// BuildHardwareNetwork lowers a quantized network and its plans into
// functional hardware. qnet must be the reinterpreted clone (weights already
// snapped to the codebooks); plans must come from the same composition.
//
// Plans loaded from a RAPIDNN2 artifact carry pre-composed product tables
// (LayerPlan.Products); when their fixed-point format matches the hardware
// path, every RNA block borrows its table instead of recomputing it, so the
// crossbar configuration stays a view into the mapped file. The built
// network then shares the plans' lifetime: it must not be used after the
// owning composer.Composed is Closed.
func BuildHardwareNetwork(qnet *nn.Network, plans []*composer.LayerPlan, dev device.Params) (*HardwareNetwork, error) {
	if len(qnet.Layers) != len(plans) {
		return nil, fmt.Errorf("rna: %d layers vs %d plans", len(qnet.Layers), len(plans))
	}
	h := &HardwareNetwork{dev: dev, inSize: qnet.InSize()}
	for i, l := range qnet.Layers {
		p := plans[i]
		switch t := l.(type) {
		case *nn.Dense:
			hl, err := buildDenseHW(t, p, nextCodebook(plans, i), dev)
			if err != nil {
				return nil, err
			}
			hl.traceName = t.Name()
			h.layers = append(h.layers, hl)
		case *nn.Conv2D:
			hl, err := buildConvHW(t, p, nextCodebook(plans, i), dev)
			if err != nil {
				return nil, err
			}
			hl.traceName = t.Name()
			h.layers = append(h.layers, hl)
		case *nn.Recurrent:
			// The frame slicing of the recurrent executor requires the layer's
			// input to split into exactly Steps frames of In features; a feed
			// of any other length would slice out of bounds at inference time.
			if i > 0 {
				if prev := qnet.Layers[i-1].OutSize(); prev != t.In*t.Steps {
					return nil, fmt.Errorf("rna: recurrent layer %s wants %d×%d = %d input features, previous layer %s provides %d",
						t.Name(), t.Steps, t.In, t.In*t.Steps, qnet.Layers[i-1].Name(), prev)
				}
			}
			hl, err := buildRecurrentHW(t, p, nextCodebook(plans, i), dev)
			if err != nil {
				return nil, err
			}
			hl.traceName = t.Name()
			h.layers = append(h.layers, hl)
		case *nn.Pool2D:
			hl := buildPoolHW(t, p, nextCodebook(plans, i))
			hl.traceName = t.Name()
			h.layers = append(h.layers, hl)
		case *nn.Dropout:
			// Identity at inference; no hardware.
		default:
			return nil, fmt.Errorf("rna: hardware path cannot lower %T", l)
		}
	}
	if len(h.layers) == 0 {
		return nil, fmt.Errorf("rna: empty network")
	}
	last := h.layers[len(h.layers)-1]
	if !last.plan.IsCompute() {
		return nil, fmt.Errorf("rna: final layer must be a compute layer")
	}
	last.isLogit = true
	if first := h.layers[0]; first.kind == composer.KindRecurrent {
		// The frame slicing of the recurrent executor requires the input to
		// split into exactly rnnSteps frames of rnnIn features.
		if want := first.rnnIn * first.rnnSteps; h.inSize != want {
			return nil, fmt.Errorf("rna: recurrent layer wants %d×%d = %d input features, network provides %d",
				first.rnnSteps, first.rnnIn, want, h.inSize)
		}
	}
	for _, hl := range h.layers {
		hl.biasFixed = make([]int64, len(hl.bias))
		for i, b := range hl.bias {
			hl.biasFixed[i] = toFixed(float64(b), hwFracBits)
		}
	}
	return h, nil
}

// nextCodebook finds the input codebook of the consuming compute layer —
// the encoder table of layer i's RNAs. The final layer has no consumer; its
// raw logit sums feed the class comparator instead.
func nextCodebook(plans []*composer.LayerPlan, i int) []float32 {
	for j := i + 1; j < len(plans); j++ {
		if plans[j].IsCompute() {
			return plans[j].InputCodebook
		}
	}
	return nil
}

const hwFracBits = 16

// planProducts returns the plan's pre-composed product table for codebook
// group g when it is usable by the hardware path — present, in the hardware
// fixed-point format, and at the geometry the current codebooks imply — and
// nil otherwise (NewFuncRNAShared then recomputes, bit-identically). The
// geometry check matters after ReconfigurePlans: re-clustering replaces the
// codebooks but a plan struct-copy can carry the stale table along.
func planProducts(p *composer.LayerPlan, g int) []int64 {
	if p.ProductFracBits != hwFracBits || g >= len(p.Products) {
		return nil
	}
	tab := p.Products[g]
	if len(tab) != len(p.WeightCodebooks[g])*len(p.InputCodebook) {
		return nil
	}
	return tab
}

// flattenRows carves n rows of uniform width w out of one flat backing
// array: the SoA layout of the per-neuron edge tables. Full-capacity slicing
// keeps a row from ever growing into its neighbour.
func flattenRows(n, w int) [][]int {
	backing := make([]int, n*w)
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

func buildDenseHW(t *nn.Dense, p *composer.LayerPlan, next []float32, dev device.Params) (*hwLayer, error) {
	wcb := p.WeightCodebooks[0]
	relu := p.ActTable == nil
	if next == nil {
		next = []float32{0} // logits bypass encoding
	}
	rna := NewFuncRNAShared(dev, wcb, p.InputCodebook, p.ActTable, relu, next, hwFracBits, planProducts(p, 0))
	hl := &hwLayer{kind: p.Kind, plan: p, skip: t.Skip, rnas: []*FuncRNA{rna}}
	in, out := t.InSize(), t.OutSize()
	hl.weightIdx = flattenRows(out, in)
	hl.edgeOf = flattenRows(out, in)
	hl.groupOf = make([]int, out)
	hl.bias = make([]float32, out)
	if t.Skip {
		hl.skipPos = make([]int, out)
	}
	for n := 0; n < out; n++ {
		hl.bias[n] = t.B.Value.At(0, n)
		wi := hl.weightIdx[n]
		ei := hl.edgeOf[n]
		for i := 0; i < in; i++ {
			wi[i] = cluster.Assign(wcb, t.W.Value.At(i, n))
			ei[i] = i
		}
		if t.Skip {
			hl.skipPos[n] = n // residual dense: in == out, aligned indices
		}
	}
	return hl, nil
}

func buildConvHW(t *nn.Conv2D, p *composer.LayerPlan, next []float32, dev device.Params) (*hwLayer, error) {
	if next == nil {
		next = []float32{0}
	}
	hl := &hwLayer{kind: p.Kind, plan: p, skip: t.Skip}
	relu := p.ActTable == nil
	// One functional RNA per codebook group.
	hl.rnas = make([]*FuncRNA, len(p.WeightCodebooks))
	for g, wcb := range p.WeightCodebooks {
		hl.rnas[g] = NewFuncRNAShared(dev, wcb, p.InputCodebook, p.ActTable, relu, next, hwFracBits, planProducts(p, g))
	}
	g := t.Geom
	outH, outW := g.OutH(), g.OutW()
	k := g.InC * g.KH * g.KW
	neurons := t.OutC * outH * outW
	hl.weightIdx = make([][]int, neurons)
	hl.edgeOf = make([][]int, neurons)
	hl.groupOf = make([]int, neurons)
	hl.bias = make([]float32, neurons)
	if t.Skip {
		// Shape-preserving residual conv: output (ch, y, x) adds input
		// (ch, y, x), which shares the same flattened index.
		hl.skipPos = make([]int, neurons)
		for n := range hl.skipPos {
			hl.skipPos[n] = n
		}
	}
	// SoA pass 1: count each spatial window's in-bounds taps (independent of
	// the channel), so the per-neuron edge lists can share one flat backing
	// array instead of allocating per neuron.
	winEdges := make([]int, outH*outW)
	total := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			cnt := 0
			for ky := 0; ky < g.KH; ky++ {
				iy := oy*g.Stride + ky - g.Pad
				if iy < 0 || iy >= g.InH {
					continue
				}
				for kx := 0; kx < g.KW; kx++ {
					if ix := ox*g.Stride + kx - g.Pad; ix >= 0 && ix < g.InW {
						cnt++
					}
				}
			}
			winEdges[oy*outW+ox] = cnt * g.InC
			total += cnt * g.InC
		}
	}
	wiAll := make([]int, 0, total*t.OutC)
	eiAll := make([]int, 0, total*t.OutC)
	off := 0
	for ch := 0; ch < t.OutC; ch++ {
		book := p.ChannelCodebook[ch]
		wcb := p.WeightCodebooks[book]
		// Weight indices are shared by every position of the channel.
		wi := make([]int, k)
		for i := 0; i < k; i++ {
			wi[i] = cluster.Assign(wcb, t.W.Value.At(ch, i))
		}
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				n := ch*outH*outW + oy*outW + ox
				hl.groupOf[n] = book
				hl.bias[n] = t.B.Value.At(0, ch)
				// Gather the window's input positions into this neuron's
				// full-capacity view of the flat arrays; out-of-bounds taps
				// produce no edge at all (zero pad).
				nb := winEdges[oy*outW+ox]
				wiN := wiAll[off : off : off+nb]
				eiN := eiAll[off : off : off+nb]
				off += nb
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.Stride + ky - g.Pad
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.Stride + kx - g.Pad
							if ix < 0 || ix >= g.InW {
								continue
							}
							idx := c*g.KH*g.KW + ky*g.KW + kx
							eiN = append(eiN, c*g.InH*g.InW+iy*g.InW+ix)
							wiN = append(wiN, wi[idx])
						}
					}
				}
				hl.weightIdx[n] = wiN
				hl.edgeOf[n] = eiN
			}
		}
	}
	return hl, nil
}

func buildRecurrentHW(t *nn.Recurrent, p *composer.LayerPlan, next []float32, dev device.Params) (*hwLayer, error) {
	wcb := p.WeightCodebooks[0]
	relu := p.ActTable == nil
	if next == nil {
		next = []float32{0}
	}
	hl := &hwLayer{
		kind: p.Kind, plan: p,
		rnnIn: t.In, rnnH: t.H, rnnSteps: t.Steps,
		// rnas[0] encodes the final hidden state for the consumer; rnnLoop
		// re-encodes intermediate states onto the layer's own codebook. Both
		// share the (wcb, ucb) pair, so a borrowed product table serves both.
		rnas:    []*FuncRNA{NewFuncRNAShared(dev, wcb, p.InputCodebook, p.ActTable, relu, next, hwFracBits, planProducts(p, 0))},
		rnnLoop: NewFuncRNAShared(dev, wcb, p.InputCodebook, p.ActTable, relu, p.InputCodebook, hwFracBits, planProducts(p, 0)),
	}
	// Per hidden neuron j: In edges from the frame (Wx column j) followed by
	// H edges from the fed-back state (Wh column j), SoA-packed like the
	// feed-forward layers.
	hl.weightIdx = flattenRows(t.H, t.In+t.H)
	hl.groupOf = make([]int, t.H)
	hl.bias = make([]float32, t.H)
	for j := 0; j < t.H; j++ {
		hl.bias[j] = t.B.Value.At(0, j)
		wi := hl.weightIdx[j]
		for i := 0; i < t.In; i++ {
			wi[i] = cluster.Assign(wcb, t.Wx.Value.At(i, j))
		}
		for k := 0; k < t.H; k++ {
			wi[t.In+k] = cluster.Assign(wcb, t.Wh.Value.At(k, j))
		}
	}
	return hl, nil
}

func buildPoolHW(t *nn.Pool2D, p *composer.LayerPlan, next []float32) *hwLayer {
	hl := &hwLayer{kind: p.Kind, plan: p, poolAvg: t.Kind == nn.AvgPool, poolCB: next}
	g := t.Geom
	outH, outW := g.OutH(), g.OutW()
	// Pooling windows are uniform (no padding), so they SoA-pack directly.
	hl.poolWindows = flattenRows(g.InC*outH*outW, g.KH*g.KW)
	n := 0
	for c := 0; c < g.InC; c++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				win := hl.poolWindows[n]
				n++
				i := 0
				for ky := 0; ky < g.KH; ky++ {
					for kx := 0; kx < g.KW; kx++ {
						win[i] = c*g.InH*g.InW + (oy*g.Stride+ky)*g.InW + ox*g.Stride + kx
						i++
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
	// Batch-scoped CAM cache effectiveness (camcache.go).
	camHits   *obs.Counter
	camMisses *obs.Counter
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
		camHits: reg.Counter("rapidnn_rna_cam_cache_hits_total",
			"Activation/encoder CAM searches served from the batch-scoped lookup cache.", labels...),
		camMisses: reg.Counter("rapidnn_rna_cam_cache_misses_total",
			"Activation/encoder CAM searches that ran against the NDCAM and were memoized.", labels...),
	}
}

// foldCAMObs harvests one scratch's CAM-cache hit/miss tallies into the
// registry counters; a nop on an uninstrumented network. Counters are atomic,
// so concurrent workers harvest without coordination.
func (h *HardwareNetwork) foldCAMObs(s *Scratch) {
	o := h.nobs
	if o == nil {
		return
	}
	o.camHits.Add(s.camHits)
	o.camMisses.Add(s.camMisses)
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
// evaluated in s, bias passed by value) and returns the input's substrate
// activity instead of accumulating shared state. All intermediate state —
// the ping-pong activation buffers, the edge gather buffer, the recurrent
// frame/state buffers and every per-neuron working set — lives in s, so a
// worker that reuses one Scratch classifies inputs without allocating in
// steady state. s must not be shared between concurrent inferOne calls.
func (h *HardwareNetwork) inferOne(x []float32, s *Scratch) (int, crossbar.Stats, error) {
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
	defer func() {
		// Hand the (possibly grown) buffers back whichever way they ended up.
		s.actA, s.actB = enc, nxt
	}()
	for _, hl := range h.layers {
		// One span per layer per input; names are fixed at build time so the
		// traced path formats nothing. Error paths simply drop the open span.
		var sp obs.Span
		if h.Trace != nil {
			sp = h.Trace.Start("rna", hl.traceName)
		}
		switch {
		case hl.kind == composer.KindRecurrent:
			if want := hl.rnnIn * hl.rnnSteps; len(enc) != want {
				return 0, stats, fmt.Errorf("rna: recurrent layer wants %d×%d = %d features, got %d",
					hl.rnnSteps, hl.rnnIn, want, len(enc))
			}
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
				frame := enc[step*hl.rnnIn : (step+1)*hl.rnnIn]
				last := step == hl.rnnSteps-1
				for j := 0; j < hl.rnnH; j++ {
					r := hl.rnnLoop
					if last {
						r = hl.rnas[0]
					}
					copy(feed, frame)
					copy(feed[hl.rnnIn:], hState)
					pre, st := r.AccumulateBiasScratch(hl.weightIdx[j], feed, hl.biasFixed[j], s)
					stats = addStats(stats, st)
					hNext[j] = r.encodeValue(r.activate(pre, s), s)
				}
				hState, hNext = hNext, hState
			}
			s.rnnState, s.rnnNext, s.rnnFeed = hState, hNext, feed
			nxt = resizeInts(nxt, hl.rnnH)
			copy(nxt, hState)
			enc, nxt = nxt, enc
		case hl.kind == composer.KindPool:
			out := resizeInts(nxt, len(hl.poolWindows))
			if hl.poolAvg {
				// Average pooling (§4.2.1): the crossbar sums the decoded
				// window values in memory; the division by the window size is
				// normalized into the weights offline, so here it is a fixed
				// reciprocal multiply; the result re-encodes through the AM.
				if hl.poolCB == nil {
					return 0, stats, fmt.Errorf("rna: avg pool feeding the logit layer is unsupported")
				}
				inv := 1.0 / float64(len(hl.poolWindows[0]))
				for n, win := range hl.poolWindows {
					addends := s.addends[:0]
					for _, pos := range win {
						addends = append(addends, uint64(toFixed(float64(hl.poolCB[enc[pos]]), hwFracBits))&math.MaxUint32)
					}
					s.addends = addends
					raw, st := s.add.AddMany(h.dev, addends, sumWidth)
					stats = addStats(stats, st)
					mean := fromFixed(int64(int32(uint32(raw))), hwFracBits) * inv
					out[n] = cluster.Assign(hl.poolCB, float32(mean))
				}
				enc, nxt = out, enc
				sp.End()
				continue
			}
			// Encoded values compare like their codebook values (sorted
			// levels), so max pooling is a max over indices — realized by the
			// encoder NDCAM search in hardware (§4.2.1). The window's
			// substrate activity — refilling the pooling CAM plus one search —
			// is charged per window so pooling-layer work reaches the totals.
			for n, win := range hl.poolWindows {
				best := enc[win[0]]
				for _, pos := range win[1:] {
					if enc[pos] > best {
						best = enc[pos]
					}
				}
				out[n] = best
				stats = addStats(stats, poolCAMStats(h.dev, len(win)))
			}
			enc, nxt = out, enc
		case hl.isLogit:
			// Final layer: raw fixed-point sums, argmax comparator.
			best, bestV := 0, math.Inf(-1)
			for n := range hl.weightIdx {
				r := hl.rnas[hl.groupOf[n]]
				pre, st := r.AccumulateBiasScratch(hl.weightIdx[n], gatherInto(&s.gather, enc, hl.edgeOf[n]), hl.biasFixed[n], s)
				stats = addStats(stats, st)
				if pre > bestV {
					best, bestV = n, pre
				}
			}
			sp.End()
			return best, stats, nil
		default:
			inCB := hl.plan.InputCodebook
			out := resizeInts(nxt, len(hl.weightIdx))
			for n := range hl.weightIdx {
				r := hl.rnas[hl.groupOf[n]]
				pre, st := r.AccumulateBiasScratch(hl.weightIdx[n], gatherInto(&s.gather, enc, hl.edgeOf[n]), hl.biasFixed[n], s)
				stats = addStats(stats, st)
				z := r.activate(pre, s)
				if hl.skip {
					// Residual: the skipped encoded input re-enters through
					// the input FIFO and adds before encoding (§4.3).
					z += float64(inCB[enc[hl.skipPos[n]]])
				}
				out[n] = r.encodeValue(z, s)
			}
			enc, nxt = out, enc
		}
		sp.End()
	}
	return 0, stats, fmt.Errorf("rna: network ended without a logit layer")
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
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// InSize returns the number of input features the network consumes.
func (h *HardwareNetwork) InSize() int { return h.inSize }

// InferBatchStats classifies every row of x through the hardware path and
// returns the predictions in row order together with the batch's substrate
// activity. The batch fans out over h.Workers goroutines (default
// GOMAXPROCS); the per-input activity is folded into the returned total in
// row order, so predictions and totals are bit-identical to evaluating the
// rows one by one. It reads only the shared network configuration, so any
// number of InferBatchStats calls may run concurrently on one
// HardwareNetwork — a serving batcher aggregates the returned Stats under
// its own lock. When any row fails, the error of the lowest-indexed failing
// row is returned.
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
	preds := make([]int, n)
	stats := make([]crossbar.Stats, n)
	errs := make([]error, n)
	workers := h.workers(n)
	if workers == 1 {
		s := scratchPool.Get().(*Scratch)
		s.enableCAMCache()
		for i := 0; i < n; i++ {
			row := x.Data()[i*h.inSize : (i+1)*h.inSize]
			preds[i], stats[i], errs[i] = h.inferOne(row, s)
		}
		h.foldCAMObs(s)
		s.disableCAMCache()
		scratchPool.Put(s)
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each worker owns one Scratch for its whole share of the
				// batch: all per-input buffers — and the batch-scoped CAM
				// lookup cache — are reused across rows with no sharing
				// between workers, and the arena goes back to the pool
				// (cache disarmed) when the batch drains.
				s := scratchPool.Get().(*Scratch)
				s.enableCAMCache()
				defer func() {
					h.foldCAMObs(s)
					s.disableCAMCache()
					scratchPool.Put(s)
				}()
				for i := range next {
					row := x.Data()[i*h.inSize : (i+1)*h.inSize]
					preds[i], stats[i], errs[i] = h.inferOne(row, s)
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	sp.End()
	for _, err := range errs {
		if err != nil {
			return nil, total, err
		}
	}
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

// gatherInto fills the caller's reusable buffer with enc at the given
// positions — the per-neuron edge gather, allocation-free once the buffer
// has grown to the widest edge list.
func gatherInto(buf *[]int, enc []int, pos []int) []int {
	out := resizeInts(*buf, len(pos))
	for i, p := range pos {
		out[i] = enc[p]
	}
	*buf = out
	return out
}

func addStats(a, b crossbar.Stats) crossbar.Stats {
	a.Cycles += b.Cycles
	a.NORs += b.NORs
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.EnergyJ += b.EnergyJ
	return a
}
