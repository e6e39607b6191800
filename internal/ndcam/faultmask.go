package ndcam

import (
	"math"
	"math/bits"
)

// FaultMask is the word-parallel compilation of a []RowFault overlay. A
// fault map is drawn once and searched millions of times, so BuildFaultMask
// folds the per-row classification into bitsets up front: one uint64 word
// covers 64 rows of dead-row exclusions, and the lowest shorted row — the
// only one that can ever win — is a single precomputed index. Searching under
// the mask needs no candidate bookkeeping at all.
//
// A FaultMask is immutable after build and safe for concurrent searches.
type FaultMask struct {
	// alive[w] bit i: row w·64+i senses normally (not dead). Rows at or
	// beyond nRows — overlay shorter than the CAM — are alive by definition
	// and handled outside the bitset.
	alive []uint64
	// firstShort is the lowest shorted row, or -1. A shorted match line
	// discharges before any genuine match, so it wins outright whenever it
	// is in range of the CAM being searched.
	firstShort int
	// nRows is the overlay length the mask was built from.
	nRows int
	// anyDead records whether any exclusion exists; false together with
	// firstShort < 0 means the mask is a no-op and search takes the
	// pristine fast path.
	anyDead bool
}

// BuildFaultMask compiles a row-fault overlay into its word-parallel form.
// A nil return (for a nil/empty or all-RowOK overlay) means "no overlay";
// Search treats it as the pristine search.
func BuildFaultMask(rf []RowFault) *FaultMask {
	if len(rf) == 0 {
		return nil
	}
	fm := &FaultMask{
		alive:      make([]uint64, (len(rf)+63)/64),
		firstShort: -1,
		nRows:      len(rf),
	}
	for i := range fm.alive {
		fm.alive[i] = ^uint64(0)
	}
	if tail := len(rf) % 64; tail != 0 {
		fm.alive[len(fm.alive)-1] = uint64(1)<<tail - 1
	}
	for i, f := range rf {
		switch f {
		case RowDead:
			fm.alive[i/64] &^= uint64(1) << (i % 64)
			fm.anyDead = true
		case RowShort:
			if fm.firstShort < 0 {
				fm.firstShort = i
			}
		}
	}
	if !fm.anyDead && fm.firstShort < 0 {
		return nil
	}
	return fm
}

// searchMasked is Search's overlay path: the scan walks the alive bitset
// with trailing-zero iteration instead of re-classifying rows, so the overlay
// search costs barely more than the pristine one and allocates nothing. The
// rows beyond the overlay's length are healthy.
func (n *NDCAM) searchMasked(query uint64, fm *FaultMask) int {
	if fm.firstShort >= 0 && fm.firstShort < len(n.rows) {
		return fm.firstShort
	}
	if !fm.anyDead {
		return n.searchPristine(query)
	}
	query &= n.mask()
	rows := n.rows
	limit := len(rows)
	if fm.nRows < limit {
		limit = fm.nRows
	}
	best := -1
	if n.mode == Hamming {
		bestD := math.MaxInt
		for w := 0; w*64 < limit; w++ {
			alive := fm.alive[w]
			if rem := limit - w*64; rem < 64 {
				alive &= uint64(1)<<rem - 1
			}
			for alive != 0 {
				i := w*64 + bits.TrailingZeros64(alive)
				alive &= alive - 1
				if d := bits.OnesCount64(rows[i] ^ query); d < bestD {
					best, bestD = i, d
				}
			}
		}
		for i := limit; i < len(rows); i++ {
			if d := bits.OnesCount64(rows[i] ^ query); d < bestD {
				best, bestD = i, d
			}
		}
	} else {
		// Weighted: the MSB-first stage pipeline is integer argmin of the
		// XOR word (see searchPristine), so no staging is needed once the
		// candidate set is a bitset scan.
		bestX := uint64(math.MaxUint64)
		for w := 0; w*64 < limit; w++ {
			alive := fm.alive[w]
			if rem := limit - w*64; rem < 64 {
				alive &= uint64(1)<<rem - 1
			}
			for alive != 0 {
				i := w*64 + bits.TrailingZeros64(alive)
				alive &= alive - 1
				if x := rows[i] ^ query; x < bestX {
					best, bestX = i, x
				}
			}
		}
		for i := limit; i < len(rows); i++ {
			if x := rows[i] ^ query; x < bestX {
				best, bestX = i, x
			}
		}
	}
	if best < 0 {
		// Every row excluded: the sense amplifier latches its default.
		return 0
	}
	return best
}
