package fault

import (
	"math/bits"
	"math/rand"
	"testing"
)

// Exhaustive single-bit coverage: every data-cell and check-cell flip must
// be corrected back to the original word.
func TestSECDEDCorrectsEverySingleBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		data := rng.Uint32()
		check := EncodeSECDED(data)
		if got, st := DecodeSECDED(data, check); st != SECDEDClean || got != data {
			t.Fatalf("clean word decoded as %v/%x, want clean/%x", st, got, data)
		}
		for b := 0; b < 32; b++ {
			got, st := DecodeSECDED(data^1<<uint(b), check)
			if st != SECDEDCorrected || got != data {
				t.Fatalf("data bit %d flip: status %v, word %x, want corrected %x", b, st, got, data)
			}
		}
		for b := 0; b < CheckBits; b++ {
			got, st := DecodeSECDED(data, check^1<<uint(b))
			if st != SECDEDCorrected || got != data {
				t.Fatalf("check bit %d flip: status %v, word %x, want corrected %x", b, st, got, data)
			}
		}
	}
}

// Every double-bit error must be detected (never silently accepted, never
// "corrected" into some word while claiming success on the original).
func TestSECDEDDetectsEveryDoubleBit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		data := rng.Uint32()
		check := EncodeSECDED(data)
		for i := 0; i < 39; i++ {
			for j := i + 1; j < 39; j++ {
				d, c := data, check
				if i < 32 {
					d ^= 1 << uint(i)
				} else {
					c ^= 1 << uint(i-32)
				}
				if j < 32 {
					d ^= 1 << uint(j)
				} else {
					c ^= 1 << uint(j-32)
				}
				if _, st := DecodeSECDED(d, c); st != SECDEDUncorrectable {
					t.Fatalf("double flip (%d,%d) decoded as %v, want uncorrectable", i, j, st)
				}
			}
		}
	}
}

// The transient mask is a pure function of (seed, event): equal inputs give
// equal masks, distinct events give (almost surely) independent draws, and
// the flip frequency tracks the configured rate.
func TestTransientMaskDeterministicAndCalibrated(t *testing.T) {
	m1, f1 := TransientMask(42, 7, 18, 0.25)
	m2, f2 := TransientMask(42, 7, 18, 0.25)
	if m1 != m2 || f1 != f2 {
		t.Fatalf("same (seed,event) drew different masks: %x/%d vs %x/%d", m1, f1, m2, f2)
	}
	if m, f := TransientMask(42, 7, 18, 0); m != 0 || f != 0 {
		t.Fatalf("zero rate flipped bits: %x/%d", m, f)
	}
	total := 0
	const events, width, rate = 5000, 18, 0.1
	for e := uint64(0); e < events; e++ {
		mask, f := TransientMask(9, e, width, rate)
		if bits.OnesCount64(mask) != f {
			t.Fatalf("flip count %d disagrees with mask %x", f, mask)
		}
		if mask>>width != 0 {
			t.Fatalf("mask %x exceeds %d bits", mask, width)
		}
		total += f
	}
	got := float64(total) / float64(events*width)
	if got < rate*0.85 || got > rate*1.15 {
		t.Fatalf("transient flip frequency %.4f far from configured %.2f", got, rate)
	}
}

func TestProtectionParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "none"}, {"none", "none"}, {"parity", "parity"},
		{"spare", "spare"}, {"tmr", "tmr"},
		{"parity+spare", "parity+spare"}, {"all", "parity+spare+tmr"},
	}
	for _, c := range cases {
		p, err := ParseProtection(c.in, 64)
		if err != nil {
			t.Fatalf("ParseProtection(%q): %v", c.in, err)
		}
		if p.String() != c.want {
			t.Fatalf("ParseProtection(%q) = %q, want %q", c.in, p, c.want)
		}
	}
	if _, err := ParseProtection("magic", 64); err == nil {
		t.Fatal("unknown protection must error")
	}
	if p, _ := ParseProtection("spare", 16); p.SpareRows != 16 {
		t.Fatalf("spare budget not threaded: %d", p.SpareRows)
	}
}

func TestOverheadFactors(t *testing.T) {
	if o := (Protection{}).Overhead(1024); o != (Overhead{1, 1, 1, 1}) {
		t.Fatalf("unprotected overhead %+v, want all ones", o)
	}
	o := Protection{Parity: true, SpareRows: 64, TMR: true}.Overhead(1024)
	if o.CrossbarArea <= 39.0/32.0 || o.CAMArea != 3 || o.SearchEnergy != 3 || o.ReadEnergy <= 1 {
		t.Fatalf("combined overhead %+v implausible", o)
	}
}

func TestConfigModelAndValidation(t *testing.T) {
	for _, m := range []string{"stuck", "transient", "camrow", "mixed"} {
		cfg, err := ForModel(m, 0.01, 3)
		if err != nil {
			t.Fatalf("ForModel(%s): %v", m, err)
		}
		if cfg.StuckRate+cfg.TransientRate+cfg.CAMRowRate == 0 || cfg.Seed != 3 {
			t.Fatalf("ForModel(%s) = %+v inactive or wrong seed", m, cfg)
		}
	}
	if _, err := ForModel("cosmic", 0.01, 0); err == nil {
		t.Fatal("unknown model must error")
	}
	if err := (Config{StuckRate: 1.5}).Validate(); err == nil {
		t.Fatal("rate > 1 must fail validation")
	}
	if f := (Config{}).OneFrac(); f != 0.5 {
		t.Fatalf("default stuck-at-1 fraction %v, want 0.5", f)
	}
}

func TestCountersSnapshotAndReset(t *testing.T) {
	var c Counters
	c.Corrected.Add(3)
	c.TMRVotes.Add(5)
	s := c.Snapshot()
	if s.Corrected != 3 || s.TMRVotes != 5 {
		t.Fatalf("snapshot %+v", s)
	}
	c.Reset()
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("reset left %+v", s)
	}
}
