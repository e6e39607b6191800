package crossbar

import (
	"math/rand"
	"testing"

	"repro/internal/device"
)

// The priced adder and the gate-level oracle are the same adder: across
// random operand populations and widths — including the 0/1/2-operand edge
// cases that skip compression or the ripple stage — the native modular sum
// and Price's Stats must be bit-identical to the gate walk (EnergyJ compared
// as exact float64 bits, since the schedule replay reproduces the gate-order
// accumulation). Price reads the device on every call, so a second device
// with other NOR energy and ripple cycles must price like the oracle on it.
func TestAddManyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	d := dev()
	other := dev()
	other.NOREnergy *= 2
	other.AddFinalCyclesPerBit = 7
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(260)
		width := 1 + rng.Intn(64)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		wantSum, wantStats := AddManyReference(d, vals, width)
		gotSum, gotStats := addMany(vals, width)
		if gotSum != wantSum {
			t.Fatalf("trial %d (n=%d, width=%d): native sum %d, reference %d", trial, n, width, gotSum, wantSum)
		}
		if gotStats != wantStats {
			t.Fatalf("trial %d (n=%d, width=%d): priced stats %+v, reference %+v", trial, n, width, gotStats, wantStats)
		}
		if _, want := AddManyReference(other, vals, width); Price(&other, n, width) != want {
			t.Fatalf("trial %d (n=%d, width=%d), second device: priced stats %+v, reference %+v",
				trial, n, width, Price(&other, n, width), want)
		}
	}
}

// FuzzAddManyBitSliced is the differential fuzz target of the priced adder:
// arbitrary widths 1–64, populations 0–1k and value streams must keep the
// native modular sum and Price's Stats bit-identical to the gate-level
// reference walk.
func FuzzAddManyBitSliced(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(32))
	f.Add(int64(2), uint16(1), uint8(1))
	f.Add(int64(3), uint16(2), uint8(64))
	f.Add(int64(4), uint16(3), uint8(16))
	f.Add(int64(5), uint16(1000), uint8(32))
	f.Add(int64(6), uint16(97), uint8(48))
	f.Fuzz(func(t *testing.T, seed int64, pop uint16, w uint8) {
		n := int(pop) % 1025
		width := 1 + int(w)%64
		rng := rand.New(rand.NewSource(seed))
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		wantSum, wantStats := AddManyReference(device.Default(), vals, width)
		gotSum, gotStats := addMany(vals, width)
		if gotSum != wantSum || gotStats != wantStats {
			t.Fatalf("n=%d width=%d: priced (%d, %+v) vs reference (%d, %+v)",
				n, width, gotSum, gotStats, wantSum, wantStats)
		}
	})
}
