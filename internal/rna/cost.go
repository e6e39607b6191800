// Package rna models a Resistive Neural Acceleration block (§4, Fig. 7) —
// the hardware unit that evaluates one reinterpreted neuron. An RNA is three
// memristive memories: a crossbar holding the pre-computed products of the
// weight/input codebooks (with in-memory NOR addition), an NDCAM-based
// activation-function lookup, and an NDCAM-based encoding/pooling block.
//
// The package provides both an analytical cost model (cycles/energy per
// neuron, following every formula of §4.1–4.2) and a functional RNA that
// actually executes a neuron through the crossbar/NDCAM substrates, so the
// hardware path can be validated against the software reinterpreted model.
package rna

import (
	"math"

	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/device"
)

// Block labels a hardware sub-block for energy/latency breakdowns (Fig. 13).
type Block int

const (
	WeightedAccum Block = iota
	Activation
	Encoding
	Pooling
	Other
	numBlocks
)

func (b Block) String() string {
	switch b {
	case WeightedAccum:
		return "weighted-accum"
	case Activation:
		return "activation"
	case Encoding:
		return "encoding"
	case Pooling:
		return "pooling"
	}
	return "other"
}

// Blocks lists all breakdown blocks in display order.
func Blocks() []Block {
	return []Block{WeightedAccum, Activation, Encoding, Pooling, Other}
}

// Cost is an amount of work in cycles and joules.
type Cost struct {
	Cycles  int64
	EnergyJ float64
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.Cycles += o.Cycles
	c.EnergyJ += o.EnergyJ
}

// Scale multiplies the cost by n (n neurons doing the same work).
func (c Cost) Scale(n int64) Cost {
	return Cost{Cycles: c.Cycles * n, EnergyJ: c.EnergyJ * float64(n)}
}

// Breakdown is per-block cost.
type Breakdown [numBlocks]Cost

// Total sums all blocks. Cycles are summed too: within one neuron the
// blocks run sequentially.
func (b Breakdown) Total() Cost {
	var t Cost
	for _, c := range b {
		t.Add(c)
	}
	return t
}

// Add accumulates o into b block-wise.
func (b *Breakdown) Add(o Breakdown) {
	for i := range b {
		b[i].Add(o[i])
	}
}

// ScaleInPlace multiplies every block by n.
func (b *Breakdown) ScaleInPlace(n int64) {
	for i := range b {
		b[i] = b[i].Scale(n)
	}
}

// CostModel turns layer plans into per-neuron hardware costs.
type CostModel struct {
	Dev device.Params
}

// SumBits returns the accumulator width for a neuron with the given number
// of incoming edges: product width plus headroom for the count.
func (m CostModel) SumBits(edges int) int {
	return m.Dev.ProductBits + int(math.Ceil(math.Log2(float64(edges)+1)))
}

// addTerms estimates how many shifted addends reach the in-memory adder:
// at most one per distinct (w,u) product; when edges exceed w·u the counter
// values grow and each expands into its NAF weight (§4.1.1's shift-add).
func (m CostModel) addTerms(p *composer.LayerPlan) int {
	wu := p.W() * p.U()
	if p.Edges <= wu {
		return p.Edges
	}
	meanCount := float64(p.Edges) / float64(wu)
	nafWeight := 1 + math.Log2(meanCount)/2
	return int(float64(wu) * nafWeight)
}

// NeuronCost returns the breakdown of evaluating one neuron of a compute
// layer (dense or conv):
//
//   - counting: ceil(edges/w) cycles (one pop per weight buffer per cycle,
//     §4.1.1) and one counter increment per edge;
//   - product fetch: one crossbar read per distinct product;
//   - in-memory addition: the paper's stage model — ceil(log_{4/3} terms)
//     stages × 13 cycles + 13 × sumBits for the carry-propagating stage —
//     with NOR energy proportional to the compressor population;
//   - activation: one NDCAM search (pipelined over 8-bit stages), or a
//     single comparator cycle for ReLU;
//   - encoding: one NDCAM search;
//   - other: the bit-serial broadcast of the encoded output (§4.3).
func (m CostModel) NeuronCost(p *composer.LayerPlan) Breakdown {
	var b Breakdown
	if !p.IsCompute() {
		if p.Kind == composer.KindPool {
			return m.PoolNeuronCost(p)
		}
		return b
	}
	d := m.Dev
	w, u := p.W(), p.U()

	// Weighted accumulation: counting + product fetch + addition. Counting
	// (one pop per weight buffer per cycle) streams concurrently with the
	// carry-save tree filling up, so the stage latency is the larger of the
	// two rather than their sum — which is why performance barely depends on
	// the weight-codebook size (§5.4) and smaller codebooks are slightly
	// faster (shallower trees).
	countCycles := int64(math.Ceil(float64(p.Edges) / float64(w)))
	fetches := int64(min(w*u, p.Edges))
	terms := m.addTerms(p)
	sumBits := m.SumBits(p.Edges)
	addCycles := crossbar.AddCycles(d, terms, sumBits)
	cycles := countCycles
	if addCycles > cycles {
		cycles = addCycles
	}
	norOps := float64(15*terms) + 9*float64(sumBits) // 3:2 compressors + ripple
	b[WeightedAccum] = Cost{
		Cycles: cycles,
		EnergyJ: float64(p.Edges)*d.CounterIncEnergy +
			float64(fetches)*d.CrossbarReadEnergy +
			norOps*d.NOREnergy,
	}

	// Activation: NDCAM search over the table, or a ReLU comparator.
	actStages := int64((sumBits + 7) / 8)
	if p.ActTable != nil {
		b[Activation] = Cost{
			Cycles:  actStages * int64(d.AMSearchCycles),
			EnergyJ: d.AMSearchEnergy * float64(p.ActTable.Rows()) / float64(d.AMRows),
		}
	} else {
		b[Activation] = Cost{Cycles: 1, EnergyJ: d.NOREnergy}
	}

	// Encoding: one search over the u-row encoder AM.
	b[Encoding] = Cost{
		Cycles:  actStages * int64(d.AMSearchCycles),
		EnergyJ: d.AMSearchEnergy * float64(u) / float64(d.AMRows),
	}

	// Broadcast of the encoded output, bit-serial (§4.3).
	encBits := bitsFor(u)
	b[Other] = Cost{
		Cycles:  int64(encBits),
		EnergyJ: float64(encBits) * d.BufferEnergyPerBit,
	}
	return b
}

// PoolNeuronCost models a pooling neuron: the window's encoded values are
// written into the encoding NDCAM, then a single search finds the maximum
// (or minimum) — §4.2.1.
func (m CostModel) PoolNeuronCost(p *composer.LayerPlan) Breakdown {
	var b Breakdown
	d := m.Dev
	window := int64(p.Edges)
	b[Pooling] = Cost{
		Cycles:  window + int64(d.AMSearchCycles),
		EnergyJ: float64(window)*d.AMWriteEnergy + d.AMSearchEnergy*float64(window)/float64(d.AMRows),
	}
	encBits := 6 // pooled values stay encoded; 64-entry codebooks need 6 bits
	b[Other] = Cost{
		Cycles:  int64(encBits),
		EnergyJ: float64(encBits) * d.BufferEnergyPerBit,
	}
	return b
}

// NeuronCycles returns the sequential cycle count of evaluating one neuron —
// the layer's pipeline-stage dwell time before sharing stretch or
// replication, since a layer's neurons evaluate in parallel blocks. This is
// the accessor the accelerator's stage-cost helper builds on, so the
// analytic model, the event simulator and the compilation pass all price a
// stage through the same formula.
func (m CostModel) NeuronCycles(p *composer.LayerPlan) int64 {
	return m.NeuronCost(p).Total().Cycles
}

// ReplicaMergeCost prices folding one cascaded partial sum into the next
// replica group's carry-save tree when a stage's fan-in is split across R
// block groups (the compilation pass's bottleneck replication): each cascade
// boundary inserts one extra 3:2 compressor pass over the full accumulator
// width. Charged per neuron per boundary; zero for non-compute layers.
func (m CostModel) ReplicaMergeCost(p *composer.LayerPlan) Cost {
	if !p.IsCompute() {
		return Cost{}
	}
	sumBits := m.SumBits(p.Edges)
	return Cost{
		Cycles:  int64(m.Dev.AddStageCycles),
		EnergyJ: 15 * float64(sumBits) * m.Dev.NOREnergy,
	}
}

// ReconfigureCost returns the energy/cycles of programming one RNA's tables
// (crossbar products + both AMs) — paid when a network is larger than the
// available RNA population and blocks must be time-multiplexed (§5.5's
// 1-chip vs 8-chip gap).
func (m CostModel) ReconfigureCost(p *composer.LayerPlan) Cost {
	if !p.IsCompute() {
		return Cost{}
	}
	d := m.Dev
	bits := float64(p.W()*p.U()) * float64(d.ProductBits)
	rows := int64(p.U())
	if p.ActTable != nil {
		rows += int64(p.ActTable.Rows())
	}
	return Cost{
		Cycles:  int64(p.W()*p.U())/int64(d.CrossbarCols)*8 + rows,
		EnergyJ: bits*d.CrossbarWriteEnergy + float64(rows)*d.AMWriteEnergy,
	}
}

func bitsFor(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
