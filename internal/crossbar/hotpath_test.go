package crossbar

import (
	"math/rand"
	"testing"
)

// An AddScratch is a working set, not a semantic: across random operand
// populations — including sequences that grow and shrink the buffers — a
// reused scratch must return exactly the sum and Stats of a fresh one. The
// NOR schedule depends only on the operand count and width, so buffer
// history is invisible.
func TestAddScratchMatchesAddMany(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s AddScratch
	d := dev()
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(200) // includes 0 and 1-operand edge cases
		width := 1 + rng.Intn(64)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		wantSum, wantStats := addMany(vals, width)
		gotSum, gotStats := s.AddMany(&d, vals, width)
		if gotSum != wantSum {
			t.Fatalf("trial %d (n=%d, width=%d): scratch sum %d, fresh sum %d", trial, n, width, gotSum, wantSum)
		}
		if gotStats != wantStats {
			t.Fatalf("trial %d (n=%d, width=%d): scratch stats %+v, fresh %+v", trial, n, width, gotStats, wantStats)
		}
	}
}

// Once grown to the largest population seen, the scratch adder allocates
// nothing per call.
func TestAddScratchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := make([]uint64, 128)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 16))
	}
	var s AddScratch
	d := dev()
	s.AddMany(&d, vals, 32)
	if allocs := testing.AllocsPerRun(100, func() {
		s.AddMany(&d, vals, 32)
	}); allocs != 0 {
		t.Fatalf("AddScratch.AddMany allocates %v per op, want 0", allocs)
	}
}

// BenchmarkAddScratch1024 measures a 1024-operand addition on a reused
// scratch — the form the RNA hot path uses.
func BenchmarkAddScratch1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 1024)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 10))
	}
	d := dev()
	var s AddScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddMany(&d, vals, 32)
	}
}
