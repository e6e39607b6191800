package rna

import (
	"sync"

	"repro/internal/crossbar"
	"repro/internal/device"
)

// Scratch is the per-worker working set of the hot inference path. Every
// buffer the pipeline needs between two neuron fires — the counting
// histogram and its list of touched slots, the avg-pool adder operands, the
// in-memory adder's schedule table and its price memo, the batch-scoped CAM
// lookup cache, and the per-input activation buffers of the network
// executor — lives here, so a worker that owns one Scratch evaluates neurons
// and whole inputs without allocating in steady state.
//
// Ownership rules: a Scratch is NOT safe for concurrent use — it is the
// mutable state the read-only FuncRNA blocks and NDCAM searches are kept
// free of. One goroutine, one Scratch. InferBatchStats borrows one per
// worker from an internal sync.Pool, so it stays allocation-light and safe
// from any number of goroutines.
type Scratch struct {
	// Neuron-fire pipeline.
	counts  []int    // flat (w·u) counting histogram, all zero between calls
	touched []int    // histogram slots one accumulation made non-zero
	addends []uint64 // adder operands of one avg-pool window
	add     crossbar.AddScratch
	// prices[n] memoizes the Stats of an n-operand addition on priceDev, the
	// device of the blocks last priced (a lowered network's one immutable
	// copy), so a neuron compares a pointer, not the Params. The zero Stats
	// marks an unpriced count: every addition writes its operands.
	prices   []crossbar.Stats
	priceDev *device.Params

	// Batch-scoped CAM lookup cache (camcache.go): activation and encoder
	// searches within one batch repeat heavily, so the batch drivers enable
	// this per-worker memo for their scratch's lifetime. Off (camOn false)
	// on a fresh scratch until a batch driver arms it.
	camCache           []camCacheEntry
	camGen             uint32
	camOn              bool
	camHits, camMisses uint64

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
// adder, from the memo while dev is the device it was filled for.
func (s *Scratch) price(dev *device.Params, operands int) crossbar.Stats {
	if dev != s.priceDev {
		s.priceDev = dev
		clear(s.prices)
	}
	if operands < len(s.prices) && s.prices[operands].Writes != 0 {
		return s.prices[operands]
	}
	if operands >= len(s.prices) {
		s.prices = append(s.prices, make([]crossbar.Stats, operands+1-len(s.prices))...)
	}
	s.prices[operands] = s.add.Price(dev, operands, sumWidth)
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
