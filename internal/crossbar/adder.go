package crossbar

import (
	"fmt"

	"repro/internal/device"
)

// This file implements the in-memory adder of §4.1.2. Carry-save 3:2
// compression reduces the operand population without carry propagation, and
// a final NOR-decomposed ripple adder resolves the two survivors. That
// network computes the sum modulo 2^width exactly, so the kernel returns the
// native modular sum. Its NOR schedule — and therefore the Stats — depends
// only on the operand population and width, never on the data, so the kernel
// charges Stats from a memoized schedule table (Price) rather than gate by
// gate. The gate-level oracle (oracle_test.go) fires every NOR through a
// simulated crossbar; sums and Stats are pinned bit-identical to it.

// compressGates is the NOR count of one 3:2 compression: two 5-gate XORs,
// two 3-gate ANDs and one 2-gate OR. The carry shift is wiring (one cycle,
// no gate).
const compressGates = 18

// fullAdderGates is the NOR count of one ripple-stage full adder per bit.
const fullAdderGates = 9

// AddScratch is the reusable state of the in-memory adder: the memoized
// schedule-shape table that prices each operand population. One scratch
// serves any number of sequential Price and AddMany calls without allocating
// once its table has grown to the largest operand population seen; it must
// not be shared between concurrent adders. The zero value is ready to use.
type AddScratch struct {
	// sched[n] caches the Stats of an n-operand addition under (schedDev,
	// schedWidth) — the NOR schedule depends only on the operand count and
	// width, so steady-state accumulation charges stats by lookup instead of
	// by gate. A device or width change invalidates the table. schedDev is
	// a copy compared by value, so editing the Params a caller passes by
	// pointer invalidates it too.
	sched      []Stats
	schedOK    []bool
	schedDev   device.Params
	schedWidth int
}

// Price returns the Stats of adding n width-bit operands on the crossbar,
// replaying the gate schedule once per (population, device, width) and
// serving every later call from the cache. The replay accrues cycles and
// energy in exactly the gate order of the gate-level walk, so cached Stats
// are bit-identical to the simulated ones (float accumulation order
// included). dev is read, never retained; it is a pointer so the hot path
// does not copy the device parameters on every call.
func (s *AddScratch) Price(dev *device.Params, n, width int) Stats {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("crossbar: width %d out of [1,64]", width))
	}
	if s.schedDev != *dev || s.schedWidth != width {
		// Device or width changed: drop every cached shape.
		s.schedDev, s.schedWidth = *dev, width
		for i := range s.schedOK {
			s.schedOK[i] = false
		}
	}
	if n < len(s.schedOK) && s.schedOK[n] {
		return s.sched[n]
	}
	var st Stats
	// Operand writes, one per value.
	writeEnergy := float64(width) * dev.CrossbarWriteEnergy
	for i := 0; i < n; i++ {
		st.Writes++
		st.Cycles++
		st.EnergyJ += writeEnergy
	}
	// Carry-save reduction rounds: each full triple costs one compress3to2
	// (18 NORs charged gate by gate, plus the shift's row-copy cycle).
	for live := n; live > 2; {
		k := 0
		for i := 0; i+2 < live; i += 3 {
			k++
		}
		for t := 0; t < k; t++ {
			for g := 0; g < compressGates; g++ {
				st.NORs++
				st.Cycles++
				st.EnergyJ += dev.NOREnergy
			}
			st.Cycles++ // ShiftLeft row copy
		}
		live -= k
	}
	// Final carry-propagating ripple stage over the two survivors.
	if n >= 2 {
		for i := 0; i < width; i++ {
			st.NORs += fullAdderGates
			st.Cycles += int64(dev.AddFinalCyclesPerBit)
			st.EnergyJ += fullAdderGates * dev.NOREnergy
		}
	}
	if n >= len(s.schedOK) {
		sched := make([]Stats, n+1)
		ok := make([]bool, n+1)
		copy(sched, s.sched)
		copy(ok, s.schedOK)
		s.sched, s.schedOK = sched, ok
	}
	s.sched[n], s.schedOK[n] = st, true
	return st
}

// AddMany is the in-memory addition: the sum of values modulo 2^width, with
// the Stats of its NOR schedule charged by Price. The carry-save network
// keeps every intermediate row exact modulo 2^width — a 3:2 compression
// preserves x+y+z and the ripple stage adds its two survivors — so the
// native modular sum is bit-identical to what the gates compute, and steady
// state performs zero allocations.
func (s *AddScratch) AddMany(dev *device.Params, values []uint64, width int) (sum uint64, stats Stats) {
	if len(values) == 0 {
		return 0, Stats{}
	}
	stats = s.Price(dev, len(values), width)
	for _, v := range values {
		sum += v
	}
	if width < 64 {
		sum &= 1<<width - 1
	}
	return sum, stats
}
