// Package ndcam models the nearest-distance content-addressable memory of
// §4.2.2 (Fig. 8). Cells operate inversely to a conventional CAM — a match
// discharges the match line — so the row with the most matched bits
// discharges fastest and a simple sense amplifier finds the nearest-Hamming
// row. For precise search, access transistors are sized 2× per bit position,
// making the discharge current proportional to the binary weight of matched
// bits; with 8-bit pipeline stages searched from the most significant bits
// down, the winning row is the one minimizing the bit-weighted mismatch —
// an in-memory approximation of smallest absolute distance.
package ndcam

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/device"
)

// Mode selects the search semantics.
type Mode int

const (
	// Hamming finds the row with the fewest mismatched bits (uniform access
	// transistors).
	Hamming Mode = iota
	// Weighted sizes access transistors by bit significance and searches
	// stage-by-stage from the MSBs: the winner minimizes the mismatch
	// pattern interpreted as an integer, approximating absolute distance.
	Weighted
)

func (m Mode) String() string {
	if m == Hamming {
		return "hamming"
	}
	return "weighted"
}

// Stats accumulates search activity.
type Stats struct {
	Searches int64
	Writes   int64
	Cycles   int64
	EnergyJ  float64
}

// NDCAM is a bank of fixed-width patterns with nearest-distance search.
type NDCAM struct {
	dev       device.Params
	bits      int
	stageBits int
	mode      Mode
	rows      []uint64
	Stats     Stats
}

// New creates an empty NDCAM for patterns of the given bit width. Widths are
// searched in 8-bit pipeline stages, the widest group HSPICE showed to be
// reliably distinguishable under process variation (§4.2.2).
func New(dev device.Params, bitWidth int, mode Mode) *NDCAM {
	if bitWidth < 1 || bitWidth > 64 {
		panic(fmt.Sprintf("ndcam: bit width %d out of [1,64]", bitWidth))
	}
	return &NDCAM{dev: dev, bits: bitWidth, stageBits: 8, mode: mode}
}

// Write appends a pattern row and returns its index.
func (n *NDCAM) Write(pattern uint64) int {
	n.rows = append(n.rows, pattern&n.mask())
	n.Stats.Writes++
	n.Stats.Cycles++
	n.Stats.EnergyJ += n.dev.AMWriteEnergy
	return len(n.rows) - 1
}

// Len returns the number of stored rows.
func (n *NDCAM) Len() int { return len(n.rows) }

func (n *NDCAM) mask() uint64 {
	if n.bits == 64 {
		return ^uint64(0)
	}
	return (1 << n.bits) - 1
}

// Stages returns the number of 8-bit pipeline stages a search traverses.
func (n *NDCAM) Stages() int { return (n.bits + n.stageBits - 1) / n.stageBits }

// RowFault describes the failure state of one CAM row — the overlay the
// fault layer injects without mutating the stored patterns, so any fault
// map is revertible by dropping the overlay.
type RowFault uint8

const (
	// RowOK: the row behaves normally.
	RowOK RowFault = iota
	// RowDead: the match line never discharges, so the row can never win a
	// search (always-miss).
	RowDead
	// RowShort: the match line discharges instantly regardless of the
	// query, so the row wins every search it takes part in (always-match).
	RowShort
)

// Search returns the index of the stored row nearest the query under the
// configured mode, together with the activity of this one search. fm is the
// compiled row-fault overlay (BuildFaultMask); nil searches the fault-free
// bank. Under an overlay a shorted row discharges before any genuine match,
// so the lowest-indexed shorted row wins outright, and dead rows are excluded
// from sensing; if every row is excluded the sense amplifier latches its
// default, row 0. Faults change which line is sensed, not how many are
// driven, so the Stats do not depend on fm. Ties resolve to the lowest row
// index (the first row to be sensed). It panics if the CAM is empty. Search
// mutates nothing: any number of goroutines may search concurrently as long
// as no Write runs at the same time.
func (n *NDCAM) Search(query uint64, fm *FaultMask) (int, Stats) {
	if len(n.rows) == 0 {
		panic("ndcam: search on empty CAM")
	}
	stats := Stats{
		Searches: 1,
		Cycles:   int64(n.Stages() * n.dev.AMSearchCycles),
		EnergyJ:  n.dev.AMSearchEnergy * float64(len(n.rows)) / float64(n.dev.AMRows),
	}
	if fm == nil {
		return n.searchPristine(query), stats
	}
	return n.searchMasked(query, fm), stats
}

// searchPristine is the fault-free search: with every row sensing, no
// candidate bookkeeping is needed, so the scan is a single allocation-free
// loop. For the Weighted mode this relies on the stage pipeline being an
// integer comparison in disguise: the stages minimize the per-stage XOR
// chunks lexicographically from the MSBs, and concatenating those chunks
// MSB-first reconstructs the full XOR word — so the stage-pipelined winner
// is exactly the row minimizing rows[i]^query as an integer, ties to the
// lowest index (the first row the sense amplifier latches).
func (n *NDCAM) searchPristine(query uint64) int {
	query &= n.mask()
	best := 0
	if n.mode == Hamming {
		bestD := math.MaxInt
		for i, row := range n.rows {
			if d := bits.OnesCount64(row ^ query); d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	bestX := uint64(math.MaxUint64)
	for i, row := range n.rows {
		if x := row ^ query; x < bestX {
			best, bestX = i, x
		}
	}
	return best
}

// FixedPoint maps real values onto the CAM's unsigned integer domain. The
// mapping is monotone, so value ordering is preserved and the weighted
// search's prefix-first semantics align with numeric closeness. Build it with
// NewFixedPoint, which validates the domain once and precomputes the code
// scale, so Encode/Decode in the innermost loop is pure arithmetic.
type FixedPoint struct {
	lo, hi float64
	// maxCode is float64(2^bits − 1).
	maxCode float64
}

// NewFixedPoint builds the bits-wide code over [lo, hi]. It panics on an
// empty or inverted domain.
func NewFixedPoint(lo, hi float64, bits int) FixedPoint {
	if hi <= lo {
		panic("ndcam: bad fixed-point domain")
	}
	return FixedPoint{lo: lo, hi: hi, maxCode: float64(uint64(1)<<bits - 1)}
}

// Encode converts v to its fixed-point code, clamping to the domain.
func (f FixedPoint) Encode(v float64) uint64 {
	t := (v - f.lo) / (f.hi - f.lo)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return uint64(math.Round(t * f.maxCode))
}

// Decode converts a code back to the domain midpoint it represents.
func (f FixedPoint) Decode(code uint64) float64 {
	return f.lo + (f.hi-f.lo)*float64(code)/f.maxCode
}
