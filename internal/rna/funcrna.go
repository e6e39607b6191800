package rna

import (
	"fmt"

	"repro/internal/composer"
	"repro/internal/counting"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/ndcam"
	"repro/internal/quant"
)

// FuncRNA is a functional RNA block: it evaluates one neuron end-to-end
// through the hardware substrates — parallel counting, shift-add expansion,
// NOR-decomposed in-memory addition of fixed-point products, an NDCAM
// activation lookup and an NDCAM encoder — rather than through float math.
// It exists to validate that the hardware path computes what the software
// reinterpreted model promises.
type FuncRNA struct {
	// dev is the owning network's one copy of the device parameters
	// (HardwareNetwork.dev), borrowed so the adder reads it without a copy.
	dev *device.Params
	// products is the fixed-point pre-computed product table, flattened to a
	// single stride-indexed row-major slice: product (w,u) lives at
	// products[w·nU + u]. One backing array keeps the whole table on a few
	// cache lines and spares the per-row pointer chase of a [][]int64.
	products []int64
	nW, nU   int

	actTable *quant.ActTable // nil selects the ReLU comparator
	actCAM   *ndcam.NDCAM
	actFP    ndcam.FixedPoint

	encCAM *ndcam.NDCAM
	encFP  ndcam.FixedPoint

	// Fault overlay and protection (faults.go). flt == nil is the pristine
	// fast path; prot's zero value is the unprotected design; cnt, set by
	// injection and by SetProtection, receives their events.
	flt  *faultState
	prot fault.Protection
	cnt  *fault.Counters
}

const sumWidth = 32

// NewFuncRNAShared configures a functional RNA for the neurons of one
// codebook group. A nil actTable selects the ReLU comparator; nextCodebook
// is the consuming layer's input codebook the output is encoded with. Each
// neuron's bias travels with its evaluation, not with the block.
//
// products is the group's crossbar product table, composer.LayerPlan's
// ProductTable: stride-indexed [len(wcb)·len(ucb)] at
// composer.FlatProductFracBits fractional bits. The block BORROWS it — for a
// loaded artifact a read-only view into the mapped file, shared by every
// block configured from the same codebook group. The caller owns the backing
// memory and must keep it mapped for the block's lifetime
// (composer.Composed.Close is the usual release point). dev is borrowed too:
// the block reads through it on every evaluation, so it must not change
// while the block is in use.
func NewFuncRNAShared(dev *device.Params, wcb, ucb []float32,
	actTable *quant.ActTable, nextCodebook []float32, products []int64) *FuncRNA {
	if len(wcb) == 0 || len(ucb) == 0 || len(nextCodebook) == 0 {
		panic("rna: empty codebook")
	}
	if len(products) != len(wcb)*len(ucb) {
		panic(fmt.Sprintf("rna: product table holds %d entries, codebooks want %d×%d",
			len(products), len(wcb), len(ucb)))
	}
	// The pristine path only ever reads the table (fault injection is an
	// overlay, faults.go), so a read-only mapping is safe to borrow.
	r := &FuncRNA{dev: dev, products: products, nW: len(wcb), nU: len(ucb), actTable: actTable}
	if actTable != nil {
		lo, hi := float64(actTable.Y[0]), float64(actTable.Y[len(actTable.Y)-1])
		r.actFP = ndcam.NewFixedPoint(lo, hi, 16)
		r.actCAM = ndcam.New(*dev, 16)
		for _, y := range actTable.Y {
			r.actCAM.Write(r.actFP.Encode(float64(y)))
		}
	}
	lo, hi := float64(nextCodebook[0]), float64(nextCodebook[len(nextCodebook)-1])
	if hi <= lo {
		hi = lo + 1
	}
	r.encFP = ndcam.NewFixedPoint(lo, hi, 16)
	r.encCAM = ndcam.New(*dev, 16)
	for _, v := range nextCodebook {
		r.encCAM.Write(r.encFP.Encode(float64(v)))
	}
	return r
}

// AccumulateBiasScratch runs the weighted-accumulation pipeline — parallel
// counting (§4.1.1), shift-add expansion of the counts, and NOR-decomposed
// in-memory addition (§4.1.2) — returning the real-valued pre-activation and
// the crossbar activity of this evaluation. Edge i reads product
// wOff[i] + inputIdx[i]: wOff[i] is its weight-codebook index times nU,
// resolved at lowering, and inputIdx[i] its input-codebook index; bias is the
// neuron's fixed-point bias (quant.ToFixed at composer.FlatProductFracBits).
// One pass counts the edges and one over the (w,u) slots they hit reads each
// distinct product once, in first-hit order, so the cost follows the edge
// count. Count c's shift-add terms sum to c·product and the adder is exact
// modulo 2^sumWidth, so the sum is accumulated natively and the adder's Stats
// are priced from its operand count — bit-identical to expanding the terms
// and adding them (accumulateOracle in the tests). The histogram, all-zero
// between calls, lives in s, so steady state allocates nothing. The block
// itself is read-only here: any number of goroutines may evaluate it, each
// with its own Scratch.
func (r *FuncRNA) AccumulateBiasScratch(wOff []int32, inputIdx []int, bias int64, s *Scratch) (float64, crossbar.Stats) {
	if len(wOff) != len(inputIdx) {
		panic(fmt.Sprintf("rna: %d weights vs %d inputs", len(wOff), len(inputIdx)))
	}
	nU, size := r.nU, r.nW*r.nU
	if len(s.counts) < size {
		s.counts = make([]int, size)
	}
	if cap(s.touched) < len(wOff) {
		s.touched = make([]int, len(wOff))
	}
	// 1. Parallel counting of product occurrences (§4.1.1). Every edge writes
	// its slot at the end of the touched list, and the end advances only on
	// the slot's first hit, so no branch depends on the data.
	counts, touched, inputIdx := s.counts[:size], s.touched[:len(wOff)], inputIdx[:len(wOff)]
	k := 0
	for i, off := range wOff {
		ui := inputIdx[i]
		if uint(off) > uint(size-nU) || uint(ui) >= uint(nU) {
			clear(counts) // all-zero again for the scratch's next call
			panic(fmt.Sprintf("rna: edge %d reads weight offset %d, input %d outside the %d×%d table", i, off, ui, r.nW, nU))
		}
		idx := int(off) + ui
		touched[k] = idx
		c := counts[idx]
		counts[idx] = c + 1
		k -= (c - 1) >> 63 // one more listed slot when c was 0
	}
	touched = touched[:k]

	// 2–3. Shift-add expansion and NOR addition (§4.1.2): each count c of
	// product p contributes c·p to the sum and Weight(c) terms to the adder.
	// A block whose reads cannot be corrupted reads its table directly; one
	// with stored code words reads through readProduct.
	var sum uint32
	operands := 1 // the bias
	if r.flt == nil || r.flt.cells == nil {
		products := r.products[:size]
		for _, idx := range touched {
			c := counts[idx]
			counts[idx] = 0
			sum += uint32(c) * uint32(products[idx])
			operands += counting.Weight(c)
		}
	} else {
		for _, idx := range touched {
			c := counts[idx]
			counts[idx] = 0
			sum += uint32(c) * uint32(r.readProduct(idx))
			operands += counting.Weight(c)
		}
	}
	return quant.FromFixed(int64(int32(sum+uint32(bias))), composer.FlatProductFracBits), s.price(r.dev, operands)
}

// activate applies the activation stage: an NDCAM table search, or the ReLU
// comparator (§4.2.1).
func (r *FuncRNA) activate(pre float64) float64 {
	if r.actTable == nil {
		if pre > 0 {
			return pre
		}
		return 0
	}
	row := r.searchCAM(r.actCAM, true, r.actFP.Encode(pre))
	return float64(r.actTable.Z[row])
}

// encodeValue maps an activation output onto the consuming layer's codebook
// through the encoder NDCAM (§2.2, Fig. 2d) and returns its codebook index.
func (r *FuncRNA) encodeValue(z float64) int {
	return r.searchCAM(r.encCAM, false, r.encFP.Encode(z))
}
