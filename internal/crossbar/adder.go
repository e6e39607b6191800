package crossbar

import (
	"fmt"

	"repro/internal/device"
)

// This file implements the in-memory adder of §4.1.2 as a bit-sliced
// kernel. Carry-save 3:2 compression reduces the operand population without
// carry propagation, and a final NOR-decomposed ripple adder resolves the two
// survivors. Because the crossbar's NOR acts on whole 64-bit rows, one 3:2
// compression step is three word operations (s = x⊕y⊕z, c = maj(x,y,z)≪1)
// instead of ~18 simulated NOR row-ops, and the final ripple stage is one
// carry-propagate word add. The NOR schedule — and therefore the Stats —
// depends only on the operand population and width, never on the data, so
// the kernel charges Stats from a memoized schedule table rather than gate by
// gate. The gate-level oracle (oracle_test.go) fires every NOR through a
// simulated crossbar; sums and Stats are pinned bit-identical to it.

// compressGates is the NOR count of one 3:2 compression: two 5-gate XORs,
// two 3-gate ANDs and one 2-gate OR. The carry shift is wiring (one cycle,
// no gate).
const compressGates = 18

// fullAdderGates is the NOR count of one ripple-stage full adder per bit.
const fullAdderGates = 9

// AddScratch is the reusable working set of the in-memory adder: the
// word-parallel compression buffer plus the memoized schedule-shape table
// that prices each operand population. One scratch serves any number of
// sequential AddMany calls without allocating once its buffers have grown to
// the largest operand population seen; it must not be shared between
// concurrent adders. The zero value is ready to use.
type AddScratch struct {
	rows []uint64
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

// schedule returns the Stats of an n-operand, width-bit addition, replaying
// the gate schedule once per (population, device, width) and serving every
// later call from the cache. The replay accrues cycles and energy in exactly
// the gate order of the gate-level walk, so cached Stats are bit-identical to
// the simulated ones (float accumulation order included).
func (s *AddScratch) schedule(dev *device.Params, n, width int) Stats {
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

// AddMany is the bit-sliced in-memory addition: word-parallel carry-save 3:2
// compression (three word ops per triple — the same whole-row values the NOR
// network produces, without simulating its gates) followed by one
// carry-propagate word add for the final stage, with the Stats charged from
// the memoized schedule table. It returns the sum modulo 2^width; sum and
// Stats are bit-identical to the gate-level walk, and steady state performs
// zero allocations. dev is read, never retained; it is a pointer so the hot
// path does not copy the device parameters on every call.
func (s *AddScratch) AddMany(dev *device.Params, values []uint64, width int) (sum uint64, stats Stats) {
	if len(values) == 0 {
		return 0, Stats{}
	}
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("crossbar: width %d out of [1,64]", width))
	}
	stats = s.schedule(dev, len(values), width)
	mask := ^uint64(0)
	if width < 64 {
		mask = (1 << width) - 1
	}
	if cap(s.rows) < len(values) {
		s.rows = make([]uint64, len(values))
	}
	rows := s.rows[:len(values)]
	for i, v := range values {
		rows[i] = v & mask
	}
	// In-place reduction: each round rewrites the live prefix with the
	// survivors (sum/carry pairs first, leftovers after), exactly the
	// compaction order of the reference walk. The writer index j never
	// overtakes the reader index i, so one buffer suffices.
	live := len(rows)
	for live > 2 {
		j := 0
		i := 0
		for ; i+2 < live; i += 3 {
			x, y, z := rows[i], rows[i+1], rows[i+2]
			xy := x ^ y
			rows[j] = xy ^ z                               // s = x⊕y⊕z
			rows[j+1] = (((x & y) | (z & xy)) << 1) & mask // c = maj≪1
			j += 2
		}
		for ; i < live; i++ {
			rows[j] = rows[i]
			j++
		}
		live = j
	}
	sum = rows[0]
	if live == 2 {
		// Carry-propagate resolution of the two survivors: native word
		// arithmetic computes exactly what the per-bit ripple adder does.
		sum = (rows[0] + rows[1]) & mask
	}
	return sum, stats
}
