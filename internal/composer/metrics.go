package composer

import (
	"repro/internal/nn"
)

// Histogram is a fixed-bin weight histogram, the raw material of Fig. 6.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NonZeroBins counts bins with at least one weight — clustering collapses
// the distribution onto ≤ w spikes, so this drops sharply (Fig. 6b).
func (h *Histogram) NonZeroBins() int {
	n := 0
	for _, c := range h.Counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// WeightHistogram bins the weights of the idx-th layer of net (which must be
// a Dense or Conv2D layer) into the given number of equal-width bins.
func WeightHistogram(net *nn.Network, idx, bins int) *Histogram {
	var data []float32
	switch t := net.Layers[idx].(type) {
	case *nn.Dense:
		data = t.W.Value.Data()
	case *nn.Conv2D:
		data = t.W.Value.Data()
	default:
		panic("composer: WeightHistogram needs a compute layer")
	}
	lo, hi := float64(data[0]), float64(data[0])
	for _, v := range data {
		if float64(v) < lo {
			lo = float64(v)
		}
		if float64(v) > hi {
			hi = float64(v)
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, v := range data {
		b := int(float64(bins) * (float64(v) - lo) / (hi - lo))
		if b == bins {
			b = bins - 1
		}
		h.Counts[b]++
	}
	return h
}

// MemoryModel converts a composition into the accelerator's table storage
// footprint. ProductBits is the stored width of each precomputed
// multiplication result (the paper's ≈5 KB/neuron at w=u=64 corresponds to
// ~10 bits per entry); table Y/Z rows are stored at 32 bits.
type MemoryModel struct {
	ProductBits int
	ActRowBits  int
	EncRowBits  int
}

// DefaultMemoryModel matches the paper's ≈5 KB-per-neuron figure.
func DefaultMemoryModel() MemoryModel {
	return MemoryModel{ProductBits: 10, ActRowBits: 64, EncRowBits: 32}
}

// NeuronBytes returns the per-neuron table bytes for a compute plan:
// the w·u product crossbar, the activation AM, and the encoding AM.
func (m MemoryModel) NeuronBytes(p *LayerPlan) int64 {
	if !p.IsCompute() {
		return 0
	}
	bits := int64(p.W()) * int64(p.U()) * int64(m.ProductBits)
	if p.ActTable != nil {
		bits += int64(p.ActTable.Rows()) * int64(m.ActRowBits)
	}
	bits += int64(p.U()) * int64(m.EncRowBits)
	return (bits + 7) / 8
}

// TotalBytes returns the accelerator-wide table footprint: every neuron owns
// its RNA tables (Fig. 12's memory-usage series).
func (m MemoryModel) TotalBytes(plans []*LayerPlan) int64 {
	var total int64
	for _, p := range plans {
		total += m.NeuronBytes(p) * int64(p.Neurons)
	}
	return total
}
