// Package counting implements the weighted-accumulation bookkeeping of
// §4.1.1: instead of summing one product per incoming edge, RAPIDNN counts
// how often each pre-stored (weight, input) product occurs. Per-weight
// buffers feed the counters so that several edges are consumed per cycle
// without two increments colliding on the same counter, and each final
// count is folded into the sum with shift-and-add (with the longest-run-of-
// ones rewritten as 2^k − 1, e.g. 15 = 16 − 1).
package counting

import (
	"fmt"
	"math/bits"
)

// Pair identifies a pre-stored product: the codebook indices of its weight
// and input operands.
type Pair struct {
	W int
	U int
}

// CountResult is the outcome of the parallel counting phase.
type CountResult struct {
	// Counts maps each (weight, input) pair to its occurrence count.
	Counts map[Pair]int
	// Cycles is the number of cycles the parallel scheme needed: one pop per
	// weight buffer per cycle, so it equals the largest bucket.
	Cycles int
	// SerialCycles is what the naive one-edge-per-cycle FIFO would need.
	SerialCycles int
	// Increments is the total number of counter increments performed.
	Increments int
}

// ParallelCount simulates the per-weight-buffer counting scheme over the
// edge stream. Each cycle pops at most one pending input per weight buffer;
// because all pairs selected in a cycle have distinct weights, they hit
// distinct counters ("no two of these combinations increment the same
// counter"). It panics on an edge whose weight index is outside [0, w).
func ParallelCount(pairs []Pair, w int) CountResult {
	if w < 1 {
		panic(fmt.Sprintf("counting: w = %d", w))
	}
	buckets := make([][]int, w)
	for _, p := range pairs {
		if p.W < 0 || p.W >= w {
			panic(fmt.Sprintf("counting: weight index %d out of [0,%d)", p.W, w))
		}
		buckets[p.W] = append(buckets[p.W], p.U)
	}
	res := CountResult{
		Counts:       make(map[Pair]int),
		SerialCycles: len(pairs),
	}
	for _, b := range buckets {
		if len(b) > res.Cycles {
			res.Cycles = len(b)
		}
	}
	// Cycle-accurate replay: verifies the conflict-freedom invariant while
	// producing the counts.
	for t := 0; t < res.Cycles; t++ {
		seen := make(map[Pair]bool)
		for wi, b := range buckets {
			if t >= len(b) {
				continue
			}
			p := Pair{W: wi, U: b[t]}
			if seen[p] {
				panic("counting: two increments hit one counter in a cycle")
			}
			seen[p] = true
			res.Counts[p]++
			res.Increments++
		}
	}
	return res
}

// Term is one shifted addend of a count decomposition: ±(value << Shift).
type Term struct {
	Shift int
	Sub   bool
}

// Decompose rewrites a counter value as a minimal-weight sum of signed
// powers of two (non-adjacent form). This generalizes the paper's rules:
// powers of two become single shifts, 9 = 8+1 splits into two shifts, and
// runs of ones collapse (15 = 16 − 1). The returned terms are ordered from
// least to most significant shift.
func Decompose(c int) []Term {
	if c < 0 {
		panic(fmt.Sprintf("counting: negative count %d", c))
	}
	var terms []Term
	for shift := 0; c != 0; shift++ {
		if c&1 == 1 {
			d := 2 - (c & 3) // +1 if c ≡ 1 (mod 4), −1 if c ≡ 3 (mod 4)
			terms = append(terms, Term{Shift: shift, Sub: d < 0})
			c -= d
		}
		c >>= 1
	}
	return terms
}

// Weight returns the number of terms Decompose(c) returns — the shifted
// addends one count feeds the adder — without building them: NAF digit i of
// c is non-zero exactly where bits i+1 of c and 3c differ, so the weight is
// popcount(c ⊕ 3c) (bit 0 of c ⊕ 3c is always clear).
func Weight(c int) int {
	if c < 0 {
		panic(fmt.Sprintf("counting: negative count %d", c))
	}
	return bits.OnesCount(uint(c ^ 3*c))
}

// Apply evaluates a decomposition against v, returning c·v; it is the
// correctness oracle for Decompose.
func Apply(terms []Term, v int64) int64 {
	var sum int64
	for _, t := range terms {
		x := v << t.Shift
		if t.Sub {
			sum -= x
		} else {
			sum += x
		}
	}
	return sum
}

// AddSubOps returns the number of add/subtract operations the decomposition
// costs (terms − 1; a single shifted term is free of additions).
func AddSubOps(c int) int {
	return max(Weight(c)-1, 0)
}

// BinaryOps returns the adds a plain binary decomposition would cost
// (popcount − 1), the baseline the runs-of-ones rewriting improves on.
func BinaryOps(c int) int {
	n := 0
	for c != 0 {
		n += c & 1
		c >>= 1
	}
	if n <= 1 {
		return 0
	}
	return n - 1
}
