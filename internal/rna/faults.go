package rna

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/composer"
	"repro/internal/fault"
	"repro/internal/ndcam"
)

// This file wires the fault models of internal/fault into the functional
// hardware path. Every model is an overlay over the pristine configuration:
// the pre-computed product tables and the CAM contents are never mutated. A
// block whose product reads can be corrupted keeps its own table of the code
// words its crossbar holds, written from the pristine table under the drawn
// stuck-cell map and the protection, and dropping the overlay (ClearFaults)
// restores the block bit-exactly. One composed network can therefore sweep
// many fault configurations — and many protection combinations per
// configuration — without re-lowering.

// faultState is one drawn fault map. It is written only at injection and
// protection-change time; during inference it is read-only except for the
// atomic read-event counter, so concurrent inference workers need no locking.
type faultState struct {
	// stuck0/stuck1 are the drawn stuck-cell map, index-parallel with the
	// product table: entry wi·nU+ui pins cells of product (w,u)'s code word,
	// the fault-susceptible data cells in bits 0–31 and the SEC-DED check
	// cells in bits 32–38 (drawn unconditionally so toggling parity after
	// injection sees a consistent map). nil when no stuck cell was drawn.
	stuck0, stuck1 []uint64
	// cells is what the crossbar holds, index-parallel with the product
	// table: each product's data word, plus its check bits in bits 32–38 when
	// parity stores them, with the stuck map's pins applied to every word
	// that was not remapped to a fault-free spare row. Rebuilt by reconcile;
	// nil unless a read can be corrupted (a stuck cell was drawn, or the
	// transient rate is positive), so the kernel then reads the table directly.
	cells []uint64

	transientRate float64
	transientSeed int64
	// reads numbers every product fetch; the transient mask of a read is a
	// pure function of (seed, event), so workers share this atomic counter
	// instead of a locked RNG. The drawn mask sequence is deterministic, but
	// which fetch receives which event number depends on worker scheduling
	// — transient runs are seeded, not bit-reproducible.
	reads atomic.Uint64

	// camRows records that CAM row failures were drawn. actFM/encFM are then
	// the compiled row-fault overlays of three independently drawn copies of
	// each CAM; a nil mask means that copy drew no failed row. Copy 0 is the
	// primary (unprotected) view — enabling TMR adds voting over copies 1 and
	// 2 without changing what "unprotected" means.
	camRows      bool
	actFM, encFM [3]*ndcam.FaultMask
}

// checkShift is the bit of a stored code word where its SEC-DED check cells
// start; the 32 data cells sit below it.
const checkShift = 32

// faultBits is the span of fault-susceptible cells in a stored product word:
// the device's significant product bits plus the half of the fraction bits
// that carries real precision (matching the historical injection scope),
// within the word's 32 data cells.
func (r *FuncRNA) faultBits() int {
	return min(checkShift, r.dev.ProductBits+int(composer.FlatProductFracBits)/2)
}

// injectFaults draws a fresh fault map for this block from rng, replacing any
// previous map, and returns what was drawn. cnt receives protection and
// transient event counts from subsequent reads.
func (r *FuncRNA) injectFaults(cfg fault.Config, rng *rand.Rand, cnt *fault.Counters) fault.Report {
	f := &faultState{transientRate: cfg.TransientRate, transientSeed: rng.Int63()}
	rep := fault.Report{TransientRate: cfg.TransientRate}
	if cfg.StuckRate > 0 {
		nbits := r.faultBits()
		oneFrac := cfg.OneFrac()
		n := r.nW * r.nU
		f.stuck0, f.stuck1 = make([]uint64, n), make([]uint64, n)
		for idx := 0; idx < n; idx++ {
			// The data cells first, then the check cells.
			for b := 0; b < nbits+fault.CheckBits; b++ {
				if rng.Float64() >= cfg.StuckRate {
					continue
				}
				rep.StuckCells++
				pos := b
				if b >= nbits {
					pos = checkShift + b - nbits
				}
				cell := uint64(1) << uint(pos)
				if rng.Float64() < oneFrac {
					f.stuck1[idx] |= cell
				} else {
					f.stuck0[idx] |= cell
				}
			}
			data := uint64(uint32(r.products[idx]))
			rep.StuckBits += bits.OnesCount32(uint32(((data &^ f.stuck0[idx]) | f.stuck1[idx]) ^ data))
		}
		if rep.StuckCells == 0 {
			f.stuck0, f.stuck1 = nil, nil
		}
	}
	if cfg.CAMRowRate > 0 {
		shortFrac := cfg.ShortFrac()
		draw := func(cam *ndcam.NDCAM) (fms [3]*ndcam.FaultMask) {
			if cam == nil {
				return fms
			}
			rf := make([]ndcam.RowFault, cam.Len())
			for k := range fms {
				clear(rf)
				for i := range rf {
					if rng.Float64() >= cfg.CAMRowRate {
						continue
					}
					if rng.Float64() < shortFrac {
						rf[i] = ndcam.RowShort
					} else {
						rf[i] = ndcam.RowDead
					}
					if k == 0 {
						rep.CAMRowsFailed++
					}
				}
				fms[k] = ndcam.BuildFaultMask(rf)
			}
			return fms
		}
		f.camRows = true
		f.actFM = draw(r.actCAM)
		f.encFM = draw(r.encCAM)
	}
	r.flt = f
	r.cnt = cnt
	r.reconcile()
	return rep
}

// ClearFaults drops the fault overlay, restoring pristine behaviour exactly.
// The protection configuration is retained. Like injection, it must not run
// concurrently with inference.
func (r *FuncRNA) ClearFaults() { r.flt = nil }

// SetProtection switches the block's protection mechanisms and rewrites the
// stored code words for the current fault map, so injection and protection
// can be configured in either order. cnt receives the protection event
// counts.
func (r *FuncRNA) SetProtection(p fault.Protection, cnt *fault.Counters) {
	r.prot = p
	r.cnt = cnt
	r.reconcile()
}

// codeWord is the word configuration writes for product idx: its 32 data
// bits, plus their SEC-DED check bits above checkShift when parity stores
// them.
func (r *FuncRNA) codeWord(idx int) uint64 {
	w := uint64(uint32(r.products[idx]))
	if r.prot.Parity {
		w |= uint64(fault.EncodeSECDED(uint32(w))) << checkShift
	}
	return w
}

// reconcile rewrites the stored code words from the pristine table, the
// drawn stuck-cell map and the protection: the configuration write, then the
// repair pass a memory controller runs after a march test. The march test
// sees a word's check cells only when parity stores them. The words with the
// most corrupting pinned cells are remapped to spare rows first, ties broken
// on table position so the repair is deterministic, and a remapped word is
// rewritten without pins.
func (r *FuncRNA) reconcile() {
	f := r.flt
	if f == nil || f.stuck0 == nil && f.transientRate == 0 {
		return
	}
	if f.cells == nil {
		f.cells = make([]uint64, len(r.products))
	}
	stored := uint64(math.MaxUint32)
	if r.prot.Parity {
		stored |= 1<<(checkShift+fault.CheckBits) - 1<<checkShift
	}
	type cand struct{ idx, diff int }
	var cands []cand
	for idx := range f.cells {
		w := r.codeWord(idx)
		f.cells[idx] = w
		if f.stuck0 != nil {
			f.cells[idx] = (w &^ f.stuck0[idx]) | f.stuck1[idx]
			if d := bits.OnesCount64((f.cells[idx] ^ w) & stored); d > 0 {
				cands = append(cands, cand{idx, d})
			}
		}
	}
	if r.prot.SpareRows <= 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.diff != b.diff {
			return a.diff > b.diff
		}
		return a.idx < b.idx
	})
	for i, c := range cands {
		if i >= r.prot.SpareRows {
			r.cnt.SpareShortfall.Add(int64(len(cands) - i))
			break
		}
		f.cells[c.idx] = r.codeWord(c.idx)
		r.cnt.Remapped.Add(1)
	}
}

// readProduct is the fault-aware fetch of product idx = wi·nU+ui. A block
// whose reads cannot be corrupted reads its table directly. Otherwise the
// stored code word passes through the per-read transient mask and — when
// parity is on — the SEC-DED decode, whose corrected/uncorrectable outcomes
// are counted. Safe for concurrent use during inference.
func (r *FuncRNA) readProduct(idx int) int64 {
	f := r.flt
	if f == nil || f.cells == nil {
		return r.products[idx]
	}
	word := f.cells[idx]
	if f.transientRate > 0 {
		ev := f.reads.Add(1)
		mask, n := fault.TransientMask(f.transientSeed, ev, r.faultBits(), f.transientRate)
		word ^= mask
		if r.prot.Parity {
			cmask, cn := fault.TransientMask(f.transientSeed^checkSeedSalt, ev, fault.CheckBits, f.transientRate)
			word ^= cmask << checkShift
			n += cn
		}
		if n > 0 {
			r.cnt.TransientFlips.Add(int64(n))
		}
	}
	if r.prot.Parity {
		fixed, st := fault.DecodeSECDED(uint32(word), uint8(word>>checkShift))
		switch st {
		case fault.SECDEDCorrected:
			r.cnt.Corrected.Add(1)
			word = uint64(fixed)
		case fault.SECDEDUncorrectable:
			r.cnt.Uncorrectable.Add(1)
		}
	}
	return int64(int32(uint32(word)))
}

// checkSeedSalt decorrelates the check-cell transient stream from the data
// stream of the same read event.
const checkSeedSalt = 0x5ca1ab1e

// searchCAM runs one activation (activation true) or encoder NDCAM search
// under the block's row-fault overlay. Without TMR the primary copy's faults
// apply directly; with TMR the three independently drawn copies vote 2-of-3,
// and a three-way disagreement falls back to the median row index; codebook
// rows are ordinal, so the median is the least-wrong arbiter. The search
// Stats are discarded: activation and encoder searches charge nothing to the
// crossbar totals. It mutates only the atomic fault counters, so any number
// of goroutines may search at once.
func (r *FuncRNA) searchCAM(cam *ndcam.NDCAM, activation bool, q uint64) int {
	f := r.flt
	if f == nil || !f.camRows {
		// Pristine fast path: no row faults were drawn.
		row, _ := cam.Search(q, nil)
		return row
	}
	fms := &f.encFM
	if activation {
		fms = &f.actFM
	}
	if !r.prot.TMR {
		row, _ := cam.Search(q, fms[0])
		return row
	}
	var idx [3]int
	for k := 0; k < 3; k++ {
		idx[k], _ = cam.Search(q, fms[k])
	}
	r.cnt.TMRVotes.Add(1)
	switch {
	case idx[0] == idx[1] || idx[0] == idx[2]:
		return idx[0]
	case idx[1] == idx[2]:
		return idx[1]
	}
	r.cnt.TMRDisagreements.Add(1)
	mn, mx := idx[0], idx[0]
	for _, v := range idx[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return idx[0] + idx[1] + idx[2] - mn - mx
}
