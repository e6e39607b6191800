package ndcam

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func dev() device.Params { return device.Default() }

func TestExactMatchWinsBothModes(t *testing.T) {
	cam := New(dev(), 16)
	patterns := []uint64{3, 500, 1000, 40000, 65535}
	for _, p := range patterns {
		cam.Write(p)
	}
	for i, p := range patterns {
		if got, _ := cam.Search(p, nil); got != i {
			t.Fatalf("Search(%d) = row %d, want %d", p, got, i)
		}
	}
}

// The weighted search must globally minimize the bit-weighted mismatch
// (the XOR pattern read as an integer) — the lexicographic stage filtering
// may not change that.
func TestWeightedMinimizesWeightedXor(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cam := New(dev(), 24)
		var patterns []uint64
		for i := 0; i < 1+rng.Intn(40); i++ {
			p := rng.Uint64() & 0xFFFFFF
			patterns = append(patterns, p)
			cam.Write(p)
		}
		q := rng.Uint64() & 0xFFFFFF
		row, _ := cam.Search(q, nil)
		got := patterns[row]
		for _, p := range patterns {
			if (p ^ q) < (got ^ q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The weighted search approximates smallest-absolute-distance search
// (§4.2.2). It is not exact — XOR-minimization can miss across power-of-two
// boundaries — but it must agree with the true nearest neighbour in the
// overwhelming majority of random cases and never be wildly off.
func TestWeightedApproximatesAbsoluteDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	agree, total := 0, 0
	for trial := 0; trial < 300; trial++ {
		cam := New(dev(), 16)
		var patterns []uint64
		for i := 0; i < 32; i++ {
			p := uint64(rng.Intn(1 << 16))
			patterns = append(patterns, p)
			cam.Write(p)
		}
		q := uint64(rng.Intn(1 << 16))
		row, _ := cam.Search(q, nil)
		got := patterns[row]
		best := patterns[0]
		for _, p := range patterns {
			if absDiff(p, q) < absDiff(best, q) {
				best = p
			}
		}
		total++
		if got == best {
			agree++
		}
		// Guardrail: the chosen row must never be catastrophically far when
		// an exact-ish match exists.
		if absDiff(best, q) == 0 && got != best {
			t.Fatalf("missed exact match: q=%d got=%d", q, got)
		}
	}
	// Arbitrary random patterns are the worst case for XOR-vs-absolute
	// agreement; codebook-style monotone tables agree far more often (see
	// TestNDCAMActivationLookupAgreement).
	if ratio := float64(agree) / float64(total); ratio < 0.6 {
		t.Fatalf("weighted search agrees with absolute-nearest only %.0f%% of the time", 100*ratio)
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestSearchTieBreaksToFirstRow(t *testing.T) {
	cam := New(dev(), 8)
	cam.Write(10)
	cam.Write(10)
	if got, _ := cam.Search(10, nil); got != 0 {
		t.Fatalf("tie broke to row %d, want 0", got)
	}
}

func TestStages(t *testing.T) {
	cases := map[int]int{8: 1, 9: 2, 16: 2, 24: 3, 32: 4, 64: 8}
	for width, want := range cases {
		if got := New(dev(), width).Stages(); got != want {
			t.Errorf("Stages(width %d) = %d, want %d", width, got, want)
		}
	}
}

func TestSearchCostsScaleWithRows(t *testing.T) {
	small := New(dev(), 32)
	big := New(dev(), 32)
	for i := 0; i < 8; i++ {
		small.Write(uint64(i))
	}
	for i := 0; i < 64; i++ {
		big.Write(uint64(i))
	}
	_, s := small.Search(3, nil)
	_, b := big.Search(3, nil)
	if b.EnergyJ <= s.EnergyJ {
		t.Fatal("bigger CAM should cost more search energy")
	}
	if s.Cycles == 0 || s.Searches != 1 {
		t.Fatalf("one search charged %+v", s)
	}
}

func TestSearchEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty search did not panic")
		}
	}()
	New(dev(), 8).Search(0, nil)
}

func TestFixedPointRoundTrip(t *testing.T) {
	fp := NewFixedPoint(-4, 4, 16)
	for _, v := range []float64{-4, -1.5, 0, 0.001, 3.999, 4} {
		code := fp.Encode(v)
		back := fp.Decode(code)
		if math.Abs(back-v) > 8.0/65535+1e-9 {
			t.Fatalf("round trip %v → %d → %v", v, code, back)
		}
	}
}

func TestFixedPointClamps(t *testing.T) {
	fp := NewFixedPoint(0, 1, 8)
	if fp.Encode(-5) != 0 {
		t.Fatal("below-domain must clamp to 0")
	}
	if fp.Encode(99) != 255 {
		t.Fatal("above-domain must clamp to max code")
	}
}

// Property: fixed-point encoding is monotone, the prerequisite for the
// weighted search to track numeric closeness.
func TestFixedPointMonotoneProperty(t *testing.T) {
	fp := NewFixedPoint(-10, 10, 16)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return fp.Encode(a) <= fp.Encode(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end: an activation lookup table realized in NDCAM hardware returns
// the same row the exact software nearest-search would in almost all cases.
func TestNDCAMActivationLookupAgreement(t *testing.T) {
	fp := NewFixedPoint(-8, 8, 16)
	cam := New(dev(), 16)
	ys := make([]float64, 64)
	for i := range ys {
		ys[i] = -8 + 16*float64(i)/63
		cam.Write(fp.Encode(ys[i]))
	}
	rng := rand.New(rand.NewSource(3))
	agree := 0
	var excess float64 // total extra distance versus the optimal row
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		q := rng.Float64()*16 - 8
		got, _ := cam.Search(fp.Encode(q), nil)
		best := 0
		for i, y := range ys {
			if math.Abs(y-q) < math.Abs(ys[best]-q) {
				best = i
			}
		}
		if got == best {
			agree++
		} else {
			if d := math.Abs(ys[got] - q); d > 3*math.Abs(ys[best]-q)+0.3 {
				t.Fatalf("NDCAM row off by too much: |%v−%v| vs optimal %v", ys[got], q, ys[best])
			}
			excess += math.Abs(ys[got]-q) - math.Abs(ys[best]-q)
		}
	}
	// XOR-minimization is the hardware's approximation of absolute distance;
	// it disagrees with the exact nearest row near power-of-two code
	// boundaries but must agree most of the time and stay close otherwise.
	if float64(agree)/trials < 0.7 {
		t.Fatalf("NDCAM agreed with exact lookup only %d/%d times", agree, trials)
	}
	if mean := excess / trials; mean > 0.1 {
		t.Fatalf("mean excess distance %v over the 16-unit domain", mean)
	}
}

func BenchmarkWeightedSearch64Rows(b *testing.B) {
	cam := New(dev(), 32)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 64; i++ {
		cam.Write(rng.Uint64() & 0xFFFFFFFF)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cam.Search(uint64(i)*2654435761&0xFFFFFFFF, nil)
	}
}
