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
// the pre-computed product tables and the CAM contents are never mutated, a
// faulty read composes the pristine word with the drawn fault map on the fly,
// and dropping the overlay (ClearFaults) restores the block bit-exactly. One
// composed network can therefore sweep many fault configurations — and many
// protection combinations per configuration — without re-lowering.

// faultState is one drawn fault map. It is written only at injection and
// protection-change time; during inference it is read-only except for the
// atomic read-event counter, so concurrent inference workers need no locking.
type faultState struct {
	// sa0/sa1/csa0/csa1 are the drawn stuck-cell map, index-parallel with the
	// product table: entry wi·nU+ui pins cells of product (w,u). sa0/sa1
	// cover the fault-susceptible data cells, csa0/csa1 the SEC-DED check
	// cells (drawn unconditionally so toggling parity after injection sees a
	// consistent map). nil when no stuck faults were drawn.
	sa0, sa1   []uint64
	csa0, csa1 []uint8
	// sa0f/sa1f/csa0f/csa1f are the effective masks readProduct applies: the
	// drawn map with every word remapped to a fault-free spare row zeroed (a
	// spare row reads pristine), so a read costs two mask ops and no remap
	// branch. Rebuilt by reconcileSpares whenever the map or the spare
	// budget changes.
	sa0f, sa1f   []uint64
	csa0f, csa1f []uint8

	transientRate float64
	transientSeed int64
	// reads numbers every product fetch; the transient mask of a read is a
	// pure function of (seed, event), so workers share this atomic counter
	// instead of a locked RNG. The drawn mask sequence is deterministic, but
	// which fetch receives which event number depends on goroutine and map
	// iteration order — transient runs are seeded, not bit-reproducible.
	reads atomic.Uint64

	// camRows records that CAM row failures were drawn. actFM/encFM are then
	// the compiled row-fault overlays of three independently drawn copies of
	// each CAM; a nil mask means that copy drew no failed row. Copy 0 is the
	// primary (unprotected) view — enabling TMR adds voting over copies 1 and
	// 2 without changing what "unprotected" means.
	camRows      bool
	actFM, encFM [3]*ndcam.FaultMask
}

// faultBits is the span of fault-susceptible cells in a stored product word:
// the device's significant product bits plus the half of the fraction bits
// that carries real precision (matching the historical injection scope).
func (r *FuncRNA) faultBits() int {
	return r.dev.ProductBits + int(composer.FlatProductFracBits)/2
}

// injectFaults draws a fresh fault map for this block from rng, replacing any
// previous map, and returns what was drawn. cnt receives protection and
// transient event counts from subsequent reads (nil disables counting).
func (r *FuncRNA) injectFaults(cfg fault.Config, rng *rand.Rand, cnt *fault.Counters) fault.Report {
	f := &faultState{transientRate: cfg.TransientRate, transientSeed: rng.Int63()}
	rep := fault.Report{TransientRate: cfg.TransientRate}
	if cfg.StuckRate > 0 {
		nbits := r.faultBits()
		oneFrac := cfg.OneFrac()
		n := r.nW * r.nU
		f.sa0, f.sa1 = make([]uint64, n), make([]uint64, n)
		f.csa0, f.csa1 = make([]uint8, n), make([]uint8, n)
		for idx := 0; idx < n; idx++ {
			for b := 0; b < nbits; b++ {
				if rng.Float64() >= cfg.StuckRate {
					continue
				}
				rep.StuckCells++
				if rng.Float64() < oneFrac {
					f.sa1[idx] |= 1 << uint(b)
				} else {
					f.sa0[idx] |= 1 << uint(b)
				}
			}
			for b := 0; b < fault.CheckBits; b++ {
				if rng.Float64() >= cfg.StuckRate {
					continue
				}
				rep.StuckCells++
				if rng.Float64() < oneFrac {
					f.csa1[idx] |= 1 << uint(b)
				} else {
					f.csa0[idx] |= 1 << uint(b)
				}
			}
			pristine := uint64(r.products[idx]) & math.MaxUint32
			rep.StuckBits += bits.OnesCount64(((pristine &^ f.sa0[idx]) | f.sa1[idx]) ^ pristine)
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
	r.reconcileSpares()
	return rep
}

// ClearFaults drops the fault overlay, restoring pristine behaviour exactly.
// The protection configuration is retained. Like injection, it must not run
// concurrently with inference.
func (r *FuncRNA) ClearFaults() { r.flt = nil }

// SetProtection switches the block's protection mechanisms and re-derives
// the spare-row repair for the current fault map, so injection and protection
// can be configured in either order. cnt receives the protection event
// counts (nil disables counting).
func (r *FuncRNA) SetProtection(p fault.Protection, cnt *fault.Counters) {
	r.prot = p
	r.cnt = cnt
	r.reconcileSpares()
}

// stuckDiff counts the cells of word idx whose pinned value differs from the
// pristine stored bit — data cells always, check cells only when parity
// stores them. This is what a march test observes per word.
func (r *FuncRNA) stuckDiff(idx int) int {
	f := r.flt
	pristine := uint64(r.products[idx]) & math.MaxUint32
	d := bits.OnesCount64(((pristine &^ f.sa0[idx]) | f.sa1[idx]) ^ pristine)
	if r.prot.Parity {
		check := uint64(fault.EncodeSECDED(uint32(pristine)))
		d += bits.OnesCount64(((check &^ uint64(f.csa0[idx])) | uint64(f.csa1[idx])) ^ check)
	}
	return d
}

// reconcileSpares re-derives the effective masks from the drawn map and the
// spare budget — the repair pass a memory controller runs after a march
// test. The words with the most corrupting pinned cells are remapped first,
// ties broken on table position so the repair is deterministic, and a
// remapped word's effective masks are zero.
func (r *FuncRNA) reconcileSpares() {
	f := r.flt
	if f == nil || f.sa0 == nil {
		return
	}
	f.sa0f, f.sa1f = append(f.sa0f[:0], f.sa0...), append(f.sa1f[:0], f.sa1...)
	f.csa0f, f.csa1f = append(f.csa0f[:0], f.csa0...), append(f.csa1f[:0], f.csa1...)
	if r.prot.SpareRows <= 0 {
		return
	}
	type cand struct{ idx, diff int }
	var cands []cand
	for idx := range f.sa0 {
		if d := r.stuckDiff(idx); d > 0 {
			cands = append(cands, cand{idx, d})
		}
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
			if r.cnt != nil {
				r.cnt.SpareShortfall.Add(int64(len(cands) - i))
			}
			break
		}
		f.sa0f[c.idx], f.sa1f[c.idx] = 0, 0
		f.csa0f[c.idx], f.csa1f[c.idx] = 0, 0
		if r.cnt != nil {
			r.cnt.Remapped.Add(1)
		}
	}
}

// readProduct is the fault-aware fetch of product idx = wi·nU+ui. With no
// faults and no parity it is the direct table read. Otherwise the pristine
// word passes through the effective stuck-cell masks (remapped words carry
// zero masks), the per-read transient mask, and — when parity is on — the SEC-DED
// decode, whose corrected/uncorrectable outcomes are counted. Safe for
// concurrent use during inference.
func (r *FuncRNA) readProduct(idx int) int64 {
	f := r.flt
	if f == nil && !r.prot.Parity {
		return r.products[idx]
	}
	data := uint64(r.products[idx]) & math.MaxUint32
	parity := r.prot.Parity
	var check uint64
	if parity {
		check = uint64(fault.EncodeSECDED(uint32(data)))
	}
	if f != nil {
		if f.sa0f != nil {
			data = (data &^ f.sa0f[idx]) | f.sa1f[idx]
			if parity {
				check = (check &^ uint64(f.csa0f[idx])) | uint64(f.csa1f[idx])
			}
		}
		if f.transientRate > 0 {
			ev := f.reads.Add(1)
			mask, n := fault.TransientMask(f.transientSeed, ev, r.faultBits(), f.transientRate)
			data ^= mask
			if parity {
				cmask, cn := fault.TransientMask(f.transientSeed^checkSeedSalt, ev, fault.CheckBits, f.transientRate)
				check ^= cmask
				n += cn
			}
			if n > 0 && r.cnt != nil {
				r.cnt.TransientFlips.Add(int64(n))
			}
		}
	}
	if parity {
		fixed, st := fault.DecodeSECDED(uint32(data), uint8(check))
		switch st {
		case fault.SECDEDCorrected:
			if r.cnt != nil {
				r.cnt.Detected.Add(1)
				r.cnt.Corrected.Add(1)
			}
			data = uint64(fixed)
		case fault.SECDEDUncorrectable:
			if r.cnt != nil {
				r.cnt.Detected.Add(1)
				r.cnt.Uncorrectable.Add(1)
			}
		}
	}
	return int64(int32(uint32(data)))
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
	if r.cnt != nil {
		r.cnt.TMRVotes.Add(1)
	}
	switch {
	case idx[0] == idx[1] || idx[0] == idx[2]:
		return idx[0]
	case idx[1] == idx[2]:
		return idx[1]
	}
	if r.cnt != nil {
		r.cnt.TMRDisagreements.Add(1)
	}
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
