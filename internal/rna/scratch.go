package rna

import (
	"sync"

	"repro/internal/crossbar"
	"repro/internal/device"
)

// Scratch is the per-worker working set of the hot inference path. Every
// buffer the pipeline needs between two neuron fires — the counting
// histogram and its list of touched slots, the in-memory adder's price memo,
// and the per-input activation buffers of the network executor — lives here,
// so a worker that owns one Scratch evaluates neurons and whole inputs
// without allocating in steady state.
//
// Ownership rules: a Scratch is NOT safe for concurrent use — it is the
// mutable state the read-only FuncRNA blocks and NDCAM searches are kept
// free of. One goroutine, one Scratch. InferBatchStats borrows one per
// worker from an internal sync.Pool, so it stays allocation-light and safe
// from any number of goroutines.
type Scratch struct {
	// Neuron-fire pipeline.
	counts  []int // flat (w·u) counting histogram, all zero between calls
	touched []int // histogram slots one accumulation made non-zero
	// prices[n] memoizes the Stats of an n-operand addition on priceDev, the
	// device of the blocks last priced (a lowered network's one immutable
	// copy), so a neuron compares a pointer, not the Params. It is the
	// adder's only memo, kept across networks lowered for equal Params
	// (refilling it costs milliseconds; DESIGN, Priced NOR adder). The zero
	// Stats marks an unpriced count: every addition writes its operands.
	prices   []crossbar.Stats
	priceDev *device.Params

	// Network executor (inferOne): ping-pong activation buffers, a conv
	// layer's gathered windows, and the recurrent state/feed buffers.
	actA, actB                 []int
	gather                     []int
	rnnState, rnnNext, rnnFeed []int
}

// NewScratch returns an empty scratch; buffers grow on first use and are
// retained afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs InferBatchStats: each batch worker borrows one Scratch
// for its share of the rows, so steady-state batches allocate no working set.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// price returns the Stats of adding operands sumWidth-bit values on dev's
// adder, from the memo while dev holds the Params it was filled for, and
// from crossbar.Price on a miss.
func (s *Scratch) price(dev *device.Params, operands int) crossbar.Stats {
	if dev != s.priceDev {
		if s.priceDev == nil || *dev != *s.priceDev {
			clear(s.prices)
		}
		s.priceDev = dev
	}
	if operands < len(s.prices) && s.prices[operands].Writes != 0 {
		return s.prices[operands]
	}
	if operands >= len(s.prices) {
		s.prices = append(s.prices, make([]crossbar.Stats, operands+1-len(s.prices))...)
	}
	s.prices[operands] = crossbar.Price(dev, operands, sumWidth)
	return s.prices[operands]
}

// resizeInts returns buf resized to n entries, reallocating only on growth.
// Contents are unspecified; callers overwrite every entry.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
