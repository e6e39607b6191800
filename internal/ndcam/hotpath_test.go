package ndcam

import (
	"math"
	"math/rand"
	"testing"
)

// randomCAM builds a CAM with n random patterns of the given width.
func randomCAM(rng *rand.Rand, bits, n int) *NDCAM {
	cam := New(dev(), bits)
	mask := uint64(1)<<bits - 1
	for i := 0; i < n; i++ {
		cam.Write(rng.Uint64() & mask)
	}
	return cam
}

// The fault-free search is the form every activation lookup and encoder
// search takes on the pristine inference path; it must not allocate.
func TestSearchStatsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cam := randomCAM(rng, 16, 64)
	q := rng.Uint64() & 0xFFFF
	allocs := testing.AllocsPerRun(200, func() {
		cam.Search(q, nil)
	})
	if allocs != 0 {
		t.Fatalf("fault-free Search allocates %v per op, want 0", allocs)
	}
}

// The pristine fast loop and the oracle's candidate-list walk must be the same
// search. An all-RowOK overlay is semantically fault-free but still walks the
// oracle's candidates, so comparing the two pins the fast loop — including the
// stage-pipeline-equals-integer-argmin identity — against the reference
// implementation on random banks and queries.
func TestSearchPristineMatchesCandidatePath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		bits := 1 + rng.Intn(24)
		cam := randomCAM(rng, bits, 1+rng.Intn(40))
		allOK := make([]RowFault, cam.Len())
		q := rng.Uint64()
		fastRow, fastStats := cam.Search(q, nil)
		slowRow, slowStats := cam.searchOracle(q, allOK)
		if fastRow != slowRow {
			t.Fatalf("trial %d (bits=%d, rows=%d): fast path row %d, candidate path row %d",
				trial, bits, cam.Len(), fastRow, slowRow)
		}
		if fastStats != slowStats {
			t.Fatalf("trial %d: stats diverge: %+v vs %+v", trial, fastStats, slowStats)
		}
	}
}

// NewFixedPoint precomputes the code scale; encoded and decoded values must be
// bit-identical to the literal closed-form definition of the code.
func TestNewFixedPointMatchesLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		lo := rng.NormFloat64() * 10
		hi := lo + rng.Float64()*20 + 1e-6
		bits := 1 + rng.Intn(32)
		built := NewFixedPoint(lo, hi, bits)
		maxCode := float64(uint64(1)<<bits - 1)
		for i := 0; i < 50; i++ {
			v := lo + (rng.Float64()*1.4-0.2)*(hi-lo) // includes out-of-domain values
			want := uint64(math.Round(math.Min(math.Max((v-lo)/(hi-lo), 0), 1) * maxCode))
			a := built.Encode(v)
			if a != want {
				t.Fatalf("Encode(%v) on [%v,%v]/%d: built %d, literal %d", v, lo, hi, bits, a, want)
			}
			if da, db := built.Decode(a), lo+(hi-lo)*float64(a)/maxCode; da != db {
				t.Fatalf("Decode(%d) on [%v,%v]/%d: built %v, literal %v", a, lo, hi, bits, da, db)
			}
		}
	}
}

// A bad domain must fail at construction time, not on the millionth Encode.
func TestNewFixedPointPanicsOnBadDomain(t *testing.T) {
	for _, d := range []struct{ lo, hi float64 }{{0, 0}, {1, 0.5}, {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFixedPoint(%v, %v, 8) did not panic", d.lo, d.hi)
				}
			}()
			NewFixedPoint(d.lo, d.hi, 8)
		}()
	}
}
