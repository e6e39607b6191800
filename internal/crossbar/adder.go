package crossbar

import (
	"fmt"

	"repro/internal/device"
)

// This file prices the in-memory adder of §4.1.2. Carry-save 3:2
// compression reduces the operand population without carry propagation, and
// a final NOR-decomposed ripple adder resolves the two survivors. That
// network computes the sum modulo 2^width exactly, so callers add natively;
// its NOR schedule — and therefore the Stats — depends only on the device,
// the operand count and the width, never on the data, so Price charges it
// without building the operand rows. The gate-level oracle (oracle_test.go)
// fires every NOR through a simulated crossbar; sums and Stats are pinned
// bit-identical to it.

// compressGates is the NOR count of one 3:2 compression: two 5-gate XORs,
// two 3-gate ANDs and one 2-gate OR. The carry shift is wiring (one cycle,
// no gate).
const compressGates = 18

// fullAdderGates is the NOR count of one ripple-stage full adder per bit.
const fullAdderGates = 9

// Price returns the Stats of adding n width-bit operands on the crossbar. It
// replays the gate schedule and accrues cycles and energy in exactly the
// gate order of the gate-level walk, so its Stats are bit-identical to the
// simulated ones (float accumulation order included). It holds no state:
// a caller that prices the same shape often memoizes the result. dev is
// read, never retained; it is a pointer so the hot path does not copy the
// device parameters.
func Price(dev *device.Params, n, width int) Stats {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("crossbar: width %d out of [1,64]", width))
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
	return st
}
