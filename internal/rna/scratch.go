package rna

import (
	"sync"

	"repro/internal/counting"
	"repro/internal/crossbar"
)

// Scratch is the per-worker working set of the hot inference path. Every
// buffer the pipeline needs between two neuron fires — the counting
// histogram, the shift-add term and addend lists, the in-memory adder's row
// storage and schedule table, the batch-scoped CAM lookup cache, and the
// per-input activation buffers of the network executor — lives here, so a
// worker that owns one Scratch evaluates neurons and whole inputs without
// allocating in steady state.
//
// Ownership rules: a Scratch is NOT safe for concurrent use — it is the
// mutable state the read-only FuncRNA blocks and NDCAM searches are kept
// free of. One goroutine, one Scratch. InferBatchStats borrows one per
// worker from an internal sync.Pool, so it stays allocation-light and safe
// from any number of goroutines.
type Scratch struct {
	// Neuron-fire pipeline.
	counts  []int           // flat (w·u) counting histogram
	terms   []counting.Term // shift-add decomposition of one count
	addends []uint64        // adder operands of one accumulation
	add     crossbar.AddScratch

	// Batch-scoped CAM lookup cache (camcache.go): activation and encoder
	// searches within one batch repeat heavily, so the batch drivers enable
	// this per-worker memo for their scratch's lifetime. Off (camOn false)
	// on a fresh scratch until a batch driver arms it.
	camCache           []camCacheEntry
	camGen             uint32
	camOn              bool
	camHits, camMisses uint64

	// Network executor (inferOne): ping-pong activation buffers, the edge
	// gather buffer, and the recurrent state/frame buffers.
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

// resizeInts returns buf resized to n entries, reallocating only on growth.
// Contents are unspecified; callers overwrite every entry.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
