package rna

import (
	"fmt"
	"math"

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
	dev device.Params
	// products is the fixed-point pre-computed product table, flattened to a
	// single stride-indexed row-major slice: product (w,u) lives at
	// products[w·nU + u]. One backing array keeps the whole table on a few
	// cache lines and spares the per-row pointer chase of a [][]int64.
	products []int64
	nW, nU   int
	fracBits uint

	actTable *quant.ActTable
	actCAM   *ndcam.NDCAM
	actFP    ndcam.FixedPoint
	relu     bool

	encCAM *ndcam.NDCAM
	encFP  ndcam.FixedPoint

	// actKey/encKey are the process-unique identities of this block's CAMs in
	// the batch-scoped lookup cache (camcache.go).
	actKey, encKey uint32

	// Fault overlay and protection (faults.go). flt == nil is the pristine
	// fast path; prot's zero value is the unprotected design; cnt is nil-safe.
	flt  *faultState
	prot fault.Protection
	cnt  *fault.Counters
}

const sumWidth = 32

// NewFuncRNAShared configures a functional RNA for the neurons of one
// codebook group. actTable may be nil with relu=true for the comparator path;
// nextCodebook is the consuming layer's input codebook the output is encoded
// with. Each neuron's bias travels with its evaluation, not with the block.
//
// When products is non-nil it must be the stride-indexed [len(wcb)·len(ucb)]
// table at fracBits fractional bits (what composer.SaveFlat embeds in
// RAPIDNN2 artifacts), and the block BORROWS it — typically a read-only view
// into an mmap'd artifact, shared by every block configured from the same
// codebook group. The caller owns the backing memory and must keep it mapped
// for the block's lifetime (composer.Composed.Close is the usual release
// point). A nil products recomputes the table locally, bit-identically.
func NewFuncRNAShared(dev device.Params, wcb, ucb []float32,
	actTable *quant.ActTable, relu bool, nextCodebook []float32, fracBits uint, products []int64) *FuncRNA {
	if len(wcb) == 0 || len(ucb) == 0 || len(nextCodebook) == 0 {
		panic("rna: empty codebook")
	}
	if actTable == nil && !relu {
		panic("rna: need an activation table or the ReLU comparator")
	}
	r := &FuncRNA{dev: dev, fracBits: fracBits, actTable: actTable, relu: relu}
	r.nW, r.nU = len(wcb), len(ucb)
	r.actKey, r.encKey = nextCAMKeys()
	if products != nil {
		if len(products) != r.nW*r.nU {
			panic(fmt.Sprintf("rna: borrowed product table holds %d entries, codebooks want %d×%d",
				len(products), r.nW, r.nU))
		}
		// The pristine path only ever reads the table (fault injection is an
		// overlay, faults.go), so a read-only mapping is safe to borrow.
		r.products = products
	} else {
		// Pre-compute the crossbar product table (what the composer writes at
		// configuration time, §3.3).
		r.products = make([]int64, r.nW*r.nU)
		for wi, wv := range wcb {
			row := r.products[wi*r.nU : (wi+1)*r.nU]
			for ui, uv := range ucb {
				row[ui] = toFixed(float64(wv)*float64(uv), fracBits)
			}
		}
	}
	if actTable != nil {
		lo, hi := float64(actTable.Y[0]), float64(actTable.Y[len(actTable.Y)-1])
		r.actFP = ndcam.NewFixedPoint(lo, hi, 16)
		r.actCAM = ndcam.New(dev, 16, ndcam.Weighted)
		for _, y := range actTable.Y {
			r.actCAM.Write(r.actFP.Encode(float64(y)))
		}
	}
	lo, hi := float64(nextCodebook[0]), float64(nextCodebook[len(nextCodebook)-1])
	if hi <= lo {
		hi = lo + 1
	}
	r.encFP = ndcam.NewFixedPoint(lo, hi, 16)
	r.encCAM = ndcam.New(dev, 16, ndcam.Weighted)
	for _, v := range nextCodebook {
		r.encCAM.Write(r.encFP.Encode(float64(v)))
	}
	return r
}

// AccumulateBiasScratch runs the weighted-accumulation pipeline — parallel
// counting (§4.1.1), shift-add expansion of the counts, and NOR-decomposed
// in-memory addition (§4.1.2) — returning the real-valued pre-activation and
// the crossbar activity of this evaluation. weightIdx[i] and inputIdx[i] are
// the codebook indices of edge i; bias is the neuron's fixed-point bias
// (toFixed with the block's fraction bits). The counting histogram, the
// shift-add terms, the adder operands and the adder's rows all live in s, so
// steady state allocates nothing. The block itself is read-only here: any
// number of goroutines may evaluate it, each with its own Scratch. The sum
// and the Stats depend only on the addend population, and the flat histogram
// walks products in deterministic (w,u) order, which the addition is
// insensitive to.
func (r *FuncRNA) AccumulateBiasScratch(weightIdx, inputIdx []int, bias int64, s *Scratch) (float64, crossbar.Stats) {
	if len(weightIdx) != len(inputIdx) {
		panic(fmt.Sprintf("rna: %d weights vs %d inputs", len(weightIdx), len(inputIdx)))
	}
	// 1. Parallel counting of product occurrences (§4.1.1) into the flat
	// (w·u) histogram.
	if need := r.nW * r.nU; cap(s.counts) < need {
		s.counts = make([]int, need)
	}
	counts := s.counts[:r.nW*r.nU]
	counting.CountFlat(weightIdx, inputIdx, r.nW, r.nU, counts)

	// 2. Shift-add expansion of each counted product into tree addends.
	addends := s.addends[:0]
	terms := s.terms[:0]
	for wi := 0; wi < r.nW; wi++ {
		row := counts[wi*r.nU : (wi+1)*r.nU]
		for ui, c := range row {
			if c == 0 {
				continue
			}
			prod := r.readProduct(wi, ui)
			terms = counting.DecomposeAppend(c, terms[:0])
			for _, t := range terms {
				v := prod << t.Shift
				if t.Sub {
					v = -v
				}
				addends = append(addends, uint64(v)&math.MaxUint32)
			}
		}
	}
	addends = append(addends, uint64(bias)&math.MaxUint32)
	s.addends, s.terms = addends, terms

	// 3. NOR-decomposed in-memory addition (§4.1.2).
	raw, stats := s.add.AddMany(r.dev, addends, sumWidth)
	sum := int64(int32(uint32(raw)))
	return fromFixed(sum, r.fracBits), stats
}

// activate applies the activation stage: an NDCAM table search, or the ReLU
// comparator (§4.2.1).
func (r *FuncRNA) activate(pre float64, s *Scratch) float64 {
	if r.relu {
		if pre > 0 {
			return pre
		}
		return 0
	}
	row := r.searchActCAM(r.actFP.Encode(pre), s)
	return float64(r.actTable.Z[row])
}

// encodeValue maps an activation output onto the consuming layer's codebook
// through the encoder NDCAM (§2.2, Fig. 2d) and returns its codebook index.
func (r *FuncRNA) encodeValue(z float64, s *Scratch) int {
	return r.searchEncCAM(r.encFP.Encode(z), s)
}

// toFixed / fromFixed delegate to the shared quant conversions so the
// locally composed tables stay bit-identical to artifact-embedded ones.
func toFixed(v float64, frac uint) int64 { return quant.ToFixed(v, frac) }

func fromFixed(v int64, frac uint) float64 { return quant.FromFixed(v, frac) }
