package ndcam

import "math"

// searchOracle is the scalar row-fault walk that Search is pinned against.
// It classifies every row on every search: a shorted row wins outright, dead
// rows drop out of the candidate list, and the survivors go through the
// stage-by-stage weighted search. rf[i], when i is in range, is row i's
// failure state; rows beyond the overlay are healthy, and a nil or empty
// overlay is the fault-free search. If every row is excluded the sense
// amplifier latches its default, row 0.
func (n *NDCAM) searchOracle(query uint64, rf []RowFault) (int, Stats) {
	if len(n.rows) == 0 {
		panic("ndcam: search on empty CAM")
	}
	stats := Stats{
		Searches: 1,
		Cycles:   int64(n.Stages() * n.dev.AMSearchCycles),
		EnergyJ:  n.dev.AMSearchEnergy * float64(len(n.rows)) / float64(n.dev.AMRows),
	}
	var cand []int
	for i := range n.rows {
		if i < len(rf) {
			if rf[i] == RowShort {
				// Instant discharge beats every genuine match; the first
				// shorted row is the one the sense amplifier latches.
				return i, stats
			}
			if rf[i] == RowDead {
				continue
			}
		}
		cand = append(cand, i)
	}
	if len(cand) == 0 {
		return 0, stats
	}
	query &= n.mask()
	return n.searchWeighted(query, cand), stats
}

// searchWeighted filters candidates stage by stage from the most significant
// bits: within a stage every row's discharge current is proportional to the
// binary-weighted sum of its matched bits, so the surviving rows are those
// minimizing the stage's mismatch integer. Survivors keep their relative
// order, so ties resolve to the lowest row index. Search's single integer
// argmin over the XOR word must pick the same row: lexicographic minimization
// over MSB-first stages equals minimizing the full bit-weighted mismatch.
func (n *NDCAM) searchWeighted(query uint64, cand []int) int {
	stageMask := uint64(1)<<n.stageBits - 1
	for s := n.Stages() - 1; s >= 0 && len(cand) > 1; s-- {
		shift := uint(s * n.stageBits)
		bestXor := uint64(math.MaxUint64)
		k := 0
		for _, i := range cand {
			x := ((n.rows[i] ^ query) >> shift) & stageMask
			switch {
			case x < bestXor:
				bestXor = x
				k = 0
				cand[k] = i
				k++
			case x == bestXor:
				cand[k] = i
				k++
			}
		}
		cand = cand[:k]
	}
	return cand[0]
}
