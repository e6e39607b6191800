package crossbar

import (
	"math/rand"
	"testing"

	"repro/internal/device"
)

// The bit-sliced kernel and the gate-level oracle are the same adder: across
// random operand populations and widths — including the 0/1/2-operand edge
// cases that skip compression or the ripple stage — sums AND Stats must be
// bit-identical (EnergyJ compared as exact float64 bits, since the schedule
// replay reproduces the gate-order accumulation).
func TestAddManyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var s AddScratch
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(260)
		width := 1 + rng.Intn(64)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		wantSum, wantStats := AddManyReference(dev(), vals, width)
		gotSum, gotStats := s.AddMany(dev(), vals, width)
		if gotSum != wantSum {
			t.Fatalf("trial %d (n=%d, width=%d): bit-sliced sum %d, reference %d", trial, n, width, gotSum, wantSum)
		}
		if gotStats != wantStats {
			t.Fatalf("trial %d (n=%d, width=%d): bit-sliced stats %+v, reference %+v", trial, n, width, gotStats, wantStats)
		}
		// A fresh scratch is the same kernel.
		wSum, wStats := addMany(vals, width)
		if wSum != wantSum || wStats != wantStats {
			t.Fatalf("trial %d: fresh-scratch AddMany diverged from reference", trial)
		}
	}
}

// The schedule cache must invalidate on device or width changes — a scratch
// that hops between configurations still prices every call exactly.
func TestAddScratchScheduleInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	var s AddScratch
	d1 := dev()
	d2 := dev()
	d2.NOREnergy *= 2
	d2.AddFinalCyclesPerBit = 7
	vals := make([]uint64, 40)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	for trial := 0; trial < 40; trial++ {
		d := d1
		if trial%3 == 1 {
			d = d2
		}
		width := []int{32, 16, 64}[trial%3]
		wantSum, wantStats := AddManyReference(d, vals, width)
		gotSum, gotStats := s.AddMany(d, vals, width)
		if gotSum != wantSum || gotStats != wantStats {
			t.Fatalf("trial %d (width=%d): cached schedule went stale: got %+v, want %+v",
				trial, width, gotStats, wantStats)
		}
	}
}

// FuzzAddManyBitSliced is the differential fuzz target of the adder rewrite:
// arbitrary widths 1–64, populations 0–1k and value streams must keep the
// word-parallel kernel bit-identical — sum and Stats — to the gate-level
// reference walk, with the memoized schedule table warm from prior inputs.
func FuzzAddManyBitSliced(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(32))
	f.Add(int64(2), uint16(1), uint8(1))
	f.Add(int64(3), uint16(2), uint8(64))
	f.Add(int64(4), uint16(3), uint8(16))
	f.Add(int64(5), uint16(1000), uint8(32))
	f.Add(int64(6), uint16(97), uint8(48))
	var s AddScratch // persists across inputs: exercises cache reuse and growth
	f.Fuzz(func(t *testing.T, seed int64, pop uint16, w uint8) {
		n := int(pop) % 1025
		width := 1 + int(w)%64
		rng := rand.New(rand.NewSource(seed))
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		d := device.Default()
		wantSum, wantStats := AddManyReference(d, vals, width)
		gotSum, gotStats := s.AddMany(d, vals, width)
		if gotSum != wantSum || gotStats != wantStats {
			t.Fatalf("n=%d width=%d: bit-sliced (%d, %+v) vs reference (%d, %+v)",
				n, width, gotSum, gotStats, wantSum, wantStats)
		}
	})
}
