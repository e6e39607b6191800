package crossbar

import "testing"

// Price holds no state, so pricing an addition allocates nothing.
func TestPriceZeroAllocs(t *testing.T) {
	d := dev()
	if allocs := testing.AllocsPerRun(100, func() {
		Price(&d, 128, 32)
	}); allocs != 0 {
		t.Fatalf("Price allocates %v per op, want 0", allocs)
	}
}
