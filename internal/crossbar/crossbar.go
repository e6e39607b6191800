// Package crossbar models the memristor crossbar memory of an RNA block
// (§4.1.2): single-level bipolar resistive cells storing the pre-computed
// multiplication results, with in-memory addition executed as a sequence of
// row-parallel NOR operations (MAGIC-style memristor-aided logic). The adder
// charges every NOR, write and row copy of its schedule cycles and energy
// from the device parameter model, so the functional simulation doubles as
// the timing/energy simulation. The gate-level crossbar that fires those
// NORs one by one lives in the package tests, as the oracle the bit-sliced
// adder is pinned against.
package crossbar

import (
	"math"

	"repro/internal/device"
)

// Stats accumulates the activity of one crossbar.
type Stats struct {
	Cycles  int64
	NORs    int64
	Reads   int64
	Writes  int64
	EnergyJ float64
}

// TreeStages returns the number of carry-save reduction stages the paper's
// cost model assigns to summing `terms` values: ceil(log_{4/3}(terms))
// (§4.1.2, "our design can handle addition in log4/3(w×u) stages").
func TreeStages(dev device.Params, terms int) int {
	if terms <= 2 {
		return 0
	}
	r := float64(dev.AddTreeRadixNum) / float64(dev.AddTreeRadixDen)
	return int(math.Ceil(math.Log(float64(terms)) / math.Log(r)))
}

// AddCycles is the paper's addition latency model: each tree stage takes
// AddStageCycles cycles, and the final carry-propagating stage takes
// AddFinalCyclesPerBit × bits cycles.
func AddCycles(dev device.Params, terms, bits int) int64 {
	return int64(TreeStages(dev, terms))*int64(dev.AddStageCycles) +
		int64(dev.AddFinalCyclesPerBit)*int64(bits)
}
