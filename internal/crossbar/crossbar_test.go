package crossbar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func dev() device.Params { return device.Default() }

func TestNORTruthTable(t *testing.T) {
	c := New(dev(), 4, 4)
	c.Write(0, 0b0011)
	c.Write(1, 0b0101)
	c.NOR(2, 0, 1)
	if got := c.Peek(2); got != 0b1000 {
		t.Fatalf("NOR = %04b, want 1000", got)
	}
	c.NOT(3, 0)
	if got := c.Peek(3); got != 0b1100 {
		t.Fatalf("NOT = %04b, want 1100", got)
	}
}

func TestNORCountsCyclesAndEnergy(t *testing.T) {
	c := New(dev(), 4, 8)
	before := c.Stats
	c.NOR(2, 0, 1)
	if c.Stats.Cycles != before.Cycles+1 || c.Stats.NORs != before.NORs+1 {
		t.Fatal("NOR must cost exactly one cycle")
	}
	if c.Stats.EnergyJ <= before.EnergyJ {
		t.Fatal("NOR must consume energy")
	}
}

func TestWriteMasksWidth(t *testing.T) {
	c := New(dev(), 2, 4)
	c.Write(0, 0xFF)
	if got := c.Peek(0); got != 0xF {
		t.Fatalf("width mask broken: %x", got)
	}
}

func TestShiftLeft(t *testing.T) {
	c := New(dev(), 2, 4)
	c.Write(0, 0b1011)
	c.ShiftLeft(1, 0)
	if got := c.Peek(1); got != 0b0110 {
		t.Fatalf("shift = %04b, want 0110", got)
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(dev(), 0, 8) },
		func() { New(dev(), 4, 0) },
		func() { New(dev(), 4, 65) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// addMany is the in-memory addition as production runs it: the native sum
// modulo 2^width, with the Stats of its NOR schedule charged by Price.
func addMany(values []uint64, width int) (uint64, Stats) {
	var sum uint64
	for _, v := range values {
		sum += v
	}
	if width < 64 {
		sum &= 1<<width - 1
	}
	d := dev()
	return sum, Price(&d, len(values), width)
}

func TestAddManySmall(t *testing.T) {
	sum, _ := addMany([]uint64{1, 2, 3, 4, 5}, 16)
	if sum != 15 {
		t.Fatalf("AddMany = %d, want 15", sum)
	}
}

func TestAddManySingleAndPair(t *testing.T) {
	if s, _ := addMany([]uint64{7}, 8); s != 7 {
		t.Fatalf("single = %d", s)
	}
	if s, _ := addMany([]uint64{7, 9}, 8); s != 16 {
		t.Fatalf("pair = %d", s)
	}
	if s, _ := addMany(nil, 8); s != 0 {
		t.Fatalf("empty = %d", s)
	}
}

func TestAddManyWrapsModuloWidth(t *testing.T) {
	sum, _ := addMany([]uint64{200, 100}, 8)
	if sum != (300 % 256) {
		t.Fatalf("AddMany mod 2^8 = %d, want 44", sum)
	}
}

// Property: the NOR-decomposed in-memory adder agrees with native addition
// for arbitrary operand sets.
func TestAddManyMatchesNativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		vals := make([]uint64, n)
		var want uint64
		for i := range vals {
			vals[i] = uint64(rng.Intn(1 << 16))
			want += vals[i]
		}
		got, _ := addMany(vals, 32)
		return got == want&((1<<32)-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the agreement holds at every word width and for full-range
// operands, not just the 16-bit-in-32-bit regime — native addition wraps
// mod 2^64 and the crossbar sum must equal it mod 2^width.
func TestAddManyMatchesNativeAnyWidthProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(64)
		n := 1 + rng.Intn(40)
		vals := make([]uint64, n)
		var want uint64
		for i := range vals {
			vals[i] = rng.Uint64()
			want += vals[i]
		}
		got, _ := addMany(vals, width)
		mask := uint64(1)<<width - 1
		if width == 64 {
			mask = ^uint64(0)
		}
		return got == want&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAddManyChargesWork(t *testing.T) {
	_, small := addMany([]uint64{1, 2, 3}, 16)
	_, big := addMany(make([]uint64, 64), 16)
	if big.NORs <= small.NORs {
		t.Fatalf("64-operand add used %d NORs, 3-operand used %d", big.NORs, small.NORs)
	}
	if big.EnergyJ <= small.EnergyJ {
		t.Fatal("more operands must consume more energy")
	}
}

func TestTreeStagesPaperFormula(t *testing.T) {
	d := dev()
	// log_{4/3}(4096) = 28.96 → 29 stages for w=u=64.
	if got := TreeStages(d, 4096); got != 29 {
		t.Fatalf("TreeStages(4096) = %d, want 29", got)
	}
	if got := TreeStages(d, 2); got != 0 {
		t.Fatalf("TreeStages(2) = %d, want 0", got)
	}
	if got := TreeStages(d, 16); got != 10 {
		t.Fatalf("TreeStages(16) = %d, want 10 (log_{4/3}16 = 9.64)", got)
	}
}

func TestAddCyclesPaperFormula(t *testing.T) {
	d := dev()
	// stages×13 + 13×N.
	want := int64(TreeStages(d, 1024))*13 + 13*16
	if got := AddCycles(d, 1024, 16); got != want {
		t.Fatalf("AddCycles = %d, want %d", got, want)
	}
}

// Monotonicity: more terms and wider operands never get cheaper.
func TestAddCyclesMonotone(t *testing.T) {
	d := dev()
	prev := int64(-1)
	for _, terms := range []int{2, 4, 16, 64, 256, 1024, 4096} {
		c := AddCycles(d, terms, 16)
		if c < prev {
			t.Fatalf("AddCycles decreased at terms=%d", terms)
		}
		prev = c
	}
	if AddCycles(d, 64, 32) <= AddCycles(d, 64, 16) {
		t.Fatal("wider operands must cost more final-stage cycles")
	}
}
