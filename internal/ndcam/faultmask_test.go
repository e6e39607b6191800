package ndcam

import (
	"math/rand"
	"testing"
)

// randomFaults draws an overlay of the given length. Rates are deliberately
// high so short/dead interactions (first-short wins, all-dead default) show
// up within a few hundred trials.
func randomFaults(rng *rand.Rand, n int, deadRate, shortRate float64) []RowFault {
	rf := make([]RowFault, n)
	for i := range rf {
		switch p := rng.Float64(); {
		case p < deadRate:
			rf[i] = RowDead
		case p < deadRate+shortRate:
			rf[i] = RowShort
		}
	}
	return rf
}

// Search under a compiled overlay must return exactly what the scalar
// per-row classification oracle returns — winner and Stats — across
// widths, overlay lengths (shorter, equal, and longer than the bank) and
// fault densities, including the degenerate all-dead and all-OK overlays.
func TestSearchStatsMaskedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		bits := 1 + rng.Intn(64)
		n := 1 + rng.Intn(150)
		cam := randomCAM(rng, bits, n)
		// Overlay length intentionally off the row count sometimes: the
		// scalar path ignores rf beyond the bank and treats uncovered rows
		// as healthy; the mask must agree.
		rfLen := n
		switch trial % 3 {
		case 1:
			rfLen = rng.Intn(n + 1)
		case 2:
			rfLen = n + rng.Intn(8)
		}
		deadRate := []float64{0, 0.1, 0.5, 1.0}[trial%4]
		shortRate := []float64{0, 0.02, 0.3}[trial%3]
		rf := randomFaults(rng, rfLen, deadRate, shortRate)
		fm := BuildFaultMask(rf)
		q := rng.Uint64()
		wantRow, wantStats := cam.searchOracle(q, rf)
		gotRow, gotStats := cam.Search(q, fm)
		if gotRow != wantRow || gotStats != wantStats {
			t.Fatalf("trial %d (bits=%d, rows=%d, rf=%d): masked (%d, %+v) vs scalar (%d, %+v)",
				trial, bits, n, rfLen, gotRow, gotStats, wantRow, wantStats)
		}
	}
}

// An all-RowOK overlay compiles to a nil mask, and the nil-mask search must
// be the oracle's fault-free search bit-for-bit.
func TestBuildFaultMaskNoOp(t *testing.T) {
	if fm := BuildFaultMask(nil); fm != nil {
		t.Fatalf("nil overlay compiled to %+v, want nil", fm)
	}
	if fm := BuildFaultMask(make([]RowFault, 40)); fm != nil {
		t.Fatalf("all-OK overlay compiled to %+v, want nil", fm)
	}
	rng := rand.New(rand.NewSource(22))
	cam := randomCAM(rng, 16, 64)
	for i := 0; i < 50; i++ {
		q := rng.Uint64()
		want, _ := cam.searchOracle(q, nil)
		got, _ := cam.Search(q, nil)
		if got != want {
			t.Fatalf("nil-mask search returned %d, pristine %d", got, want)
		}
	}
}

// The masked overlay search is the production fault path; it must be
// allocation-free with no scratch buffer at all.
func TestSearchStatsMaskedZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cam := randomCAM(rng, 16, 130)
	rf := make([]RowFault, cam.Len())
	for i := 0; i < cam.Len(); i += 7 {
		rf[i] = RowDead
	}
	fm := BuildFaultMask(rf)
	q := rng.Uint64() & 0xFFFF
	if allocs := testing.AllocsPerRun(200, func() {
		cam.Search(q, fm)
	}); allocs != 0 {
		t.Fatalf("masked search allocates %v per op, want 0", allocs)
	}
}

// FuzzSearchMasked is the differential fuzz target for the fault-overlay
// rewrite: arbitrary banks, queries and overlay byte strings must keep the
// compiled-mask search identical to the scalar classification walk.
func FuzzSearchMasked(f *testing.F) {
	f.Add(int64(1), uint64(0), 16, []byte{0, 1, 2, 0})
	f.Add(int64(2), uint64(1<<63), 64, []byte{2, 2})
	f.Add(int64(3), uint64(12345), 8, []byte{1, 1, 1, 1, 1, 1})
	f.Add(int64(4), uint64(7), 1, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, q uint64, bits int, faults []byte) {
		if bits < 1 || bits > 64 {
			t.Skip()
		}
		if len(faults) > 512 {
			faults = faults[:512]
		}
		rng := rand.New(rand.NewSource(seed))
		rf := make([]RowFault, len(faults))
		for i, b := range faults {
			rf[i] = RowFault(b % 3)
		}
		cam := randomCAM(rng, bits, 1+rng.Intn(200))
		fm := BuildFaultMask(rf)
		wantRow, wantStats := cam.searchOracle(q, rf)
		gotRow, gotStats := cam.Search(q, fm)
		if gotRow != wantRow || gotStats != wantStats {
			t.Fatalf("(bits=%d, rows=%d, rf=%d): masked (%d, %+v) vs scalar (%d, %+v)",
				bits, cam.Len(), len(rf), gotRow, gotStats, wantRow, wantStats)
		}
	})
}
