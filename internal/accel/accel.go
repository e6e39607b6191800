// Package accel assembles RNA blocks into the full RAPIDNN accelerator
// (§4.3, Fig. 9): tiles of 1k RNAs with a broadcast buffer, 32 tiles per
// chip, layers pipelined through the tile buffers. Given a composed
// network's layer plans it produces a complete performance/energy/area
// report — latency, pipelined throughput, per-block breakdowns, RNA
// occupancy, multiplexing and reconfiguration costs when the network does
// not fit, and the computation-efficiency metrics of §5.5.
package accel

import (
	"fmt"

	"repro/internal/composer"
	"repro/internal/device"
	"repro/internal/rna"
)

// Config selects the accelerator deployment.
type Config struct {
	Dev device.Params
	// Chips is the number of RAPIDNN chips ganged together (1 or 8 in §5.5).
	Chips int
	// ShareFraction is the fraction of each layer's neurons that share an
	// RNA block with a neighbour (§5.6); shared neurons serialize.
	ShareFraction float64
	// ReuseBatch amortizes reconfiguration writes over this many consecutive
	// inputs when the network must be time-multiplexed (1 = online
	// inference, the paper's setting).
	ReuseBatch int
	// ShareOverlap is the serialized fraction of a shared block's extra
	// neuron evaluation. Only the carry-propagating final adder stage cannot
	// overlap between the neurons sharing a block, so most of the extra work
	// pipelines; 0.1 reproduces Table 4's density gains.
	ShareOverlap float64
}

// DefaultConfig is a single chip with no sharing.
func DefaultConfig() Config {
	return Config{Dev: device.Default(), Chips: 1, ReuseBatch: 1, ShareOverlap: 0.1}
}

func (c Config) validate() error {
	if c.Chips < 1 {
		return fmt.Errorf("accel: chips = %d", c.Chips)
	}
	if c.ShareFraction < 0 || c.ShareFraction > 0.9 {
		return fmt.Errorf("accel: share fraction %v out of [0, 0.9]", c.ShareFraction)
	}
	if c.ReuseBatch < 1 {
		return fmt.Errorf("accel: reuse batch %d", c.ReuseBatch)
	}
	return nil
}

// LayerReport is the simulated execution of one layer for one input.
type LayerReport struct {
	Name      string
	Kind      composer.LayerKind
	Neurons   int
	RNABlocks int   // blocks allocated after sharing
	Cycles    int64 // latency of this layer stage
	Breakdown rna.Breakdown
}

// Report is the full simulation result for one network on one deployment.
type Report struct {
	Network string
	Chips   int

	Layers []LayerReport

	// RNAsRequired is the total blocks the network wants resident;
	// Multiplex > 1 means it exceeded capacity and blocks are re-programmed
	// on the fly (§5.5's 1-chip vs 8-chip gap).
	RNAsRequired  int
	RNAsAvailable int
	Multiplex     float64

	// LatencyCycles is the end-to-end latency of one input (layer stages are
	// sequential for a single input); PipelineCycles is the pipeline
	// initiation interval (the slowest stage), which sets throughput (§4.3).
	LatencyCycles  int64
	PipelineCycles int64
	LatencySeconds float64
	ThroughputIPS  float64

	// EnergyPerInputJ comes from the per-operation device energies and
	// includes amortized reconfiguration energy when multiplexed.
	EnergyPerInputJ float64
	ReconfigEnergyJ float64
	Breakdown       rna.Breakdown

	// EnergyPerInputPeakJ uses the paper's cross-accelerator methodology:
	// full deployment power divided by throughput.
	EnergyPerInputPeakJ float64

	// InputStagingEnergyJ / InputStagingCycles cover the data-block read and
	// the virtual encoding layer (§2.2) that map each raw input onto the
	// first compute layer's codebook. The paper folds this into its offline
	// data-layout story, so it is reported separately from the Fig. 13
	// breakdown.
	InputStagingEnergyJ float64
	InputStagingCycles  int64

	AreaMM2         float64
	UtilizedAreaMM2 float64
	PeakPowerW      float64
	MemoryBytes     int64

	// Computation-efficiency metrics (§5.5) based on utilized resources.
	MACs       int64
	GOPS       float64
	GOPSPerMM2 float64
	GOPSPerW   float64
}

// Simulate maps the planned network onto the accelerator and reports its
// execution characteristics. macs is the MAC count of one inference (used
// for GOPS metrics); name labels the report.
func Simulate(name string, plans []*composer.LayerPlan, macs int64, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dev := cfg.Dev
	cm := rna.CostModel{Dev: dev}
	r := &Report{Network: name, Chips: cfg.Chips, MACs: macs}
	r.RNAsAvailable = cfg.Chips * dev.RNAsPerChip()

	// Allocate RNA blocks per layer and accumulate per-input work. The stage
	// cycle counts, the block demand and the pipeline fold come from the
	// shared stage-cost helpers (stagecost.go) so this analytic model, the
	// event simulator and the compilation pass price stages identically.
	stages := DefaultStages(plans, cfg)
	for _, st := range stages {
		p := st.Plan
		perInput := cm.NeuronCost(p)
		perInput.ScaleInPlace(int64(p.Neurons))
		r.Layers = append(r.Layers, LayerReport{
			Name: p.Name, Kind: p.Kind, Neurons: p.Neurons,
			RNABlocks: st.Blocks,
			Cycles:    st.BaseCycles(cm, cfg.ShareOverlap),
			Breakdown: perInput,
		})
		r.Breakdown.Add(perInput)
	}

	// A plan list without any executable layer has no pipeline: latency and
	// PipelineCycles would be 0 and every throughput-derived metric
	// (ThroughputIPS, GOPS, EnergyPerInputPeakJ) would degenerate to ±Inf/NaN.
	if len(r.Layers) == 0 {
		return nil, fmt.Errorf("accel: %s has no layers to execute (plans contain no compute, pool or recurrent stages)", name)
	}

	// Capacity: when the network exceeds the RNA population, stages are
	// time-multiplexed — latency stretches and tables must be re-programmed.
	r.RNAsRequired = RequiredBlocks(stages)
	r.Multiplex = MultiplexFactor(stages, cfg)
	r.PipelineCycles, r.LatencyCycles = AnalyticPipeline(stages, cfg)
	if r.PipelineCycles == 0 {
		// Degenerate stages (e.g. zero-neuron plans) would make ThroughputIPS
		// +Inf and poison GOPS/EnergyPerInputPeakJ downstream.
		return nil, fmt.Errorf("accel: %s has a zero-cycle pipeline — no work to execute", name)
	}
	if r.Multiplex > 1 {
		// Fraction of blocks that must be (re)written every ReuseBatch
		// inputs because they were evicted.
		evicted := 1 - 1/r.Multiplex
		var reconfig float64
		for _, p := range plans {
			if !p.IsCompute() {
				continue
			}
			reconfig += cm.ReconfigureCost(p).EnergyJ * float64(p.Neurons)
		}
		r.ReconfigEnergyJ = reconfig * evicted / float64(cfg.ReuseBatch)
	}

	// Input staging: one data-block row read plus one virtual-layer encode
	// search per raw input feature (the first compute plan records the raw
	// feature count).
	for _, p := range plans {
		if !p.IsCompute() {
			continue
		}
		if features := int64(p.RawInputs); features > 0 {
			r.InputStagingEnergyJ = float64(features)*dev.CrossbarReadEnergy +
				float64(features)*dev.AMSearchEnergy*float64(p.U())/float64(dev.AMRows)
			// The data block streams 8 encoded features per cycle into the
			// broadcast FIFO.
			r.InputStagingCycles = (features + 7) / 8
		}
		break // only the first compute layer's inputs are raw
	}

	r.LatencySeconds = dev.CycleSeconds(r.LatencyCycles)
	r.ThroughputIPS = dev.ClockHz / float64(r.PipelineCycles)
	r.EnergyPerInputJ = r.Breakdown.Total().EnergyJ + r.ReconfigEnergyJ

	r.AreaMM2 = float64(cfg.Chips) * dev.ChipAreaMM2()
	used := min(r.RNAsRequired, r.RNAsAvailable)
	r.UtilizedAreaMM2 = float64(used) * dev.RNAAreaUm2() / 1e6
	r.PeakPowerW = float64(cfg.Chips) * dev.ChipPowerW()
	// Idle chips are power-gated: the full-power energy methodology charges
	// only the chips the network actually occupies.
	usedChips := (used + dev.RNAsPerChip() - 1) / dev.RNAsPerChip()
	if usedChips < 1 {
		usedChips = 1
	}
	r.EnergyPerInputPeakJ = float64(usedChips) * dev.ChipPowerW() / r.ThroughputIPS

	r.MemoryBytes = composer.DefaultMemoryModel().TotalBytes(plans)

	ops := 2 * float64(macs)
	r.GOPS = ops * r.ThroughputIPS / 1e9
	if r.UtilizedAreaMM2 > 0 {
		r.GOPSPerMM2 = r.GOPS / r.UtilizedAreaMM2
	}
	powerUsed := r.PeakPowerW * float64(used) / float64(r.RNAsAvailable)
	if powerUsed > 0 {
		r.GOPSPerW = r.GOPS / powerUsed
	}
	return r, nil
}

// EDP returns the energy-delay product of one inference (Fig. 12), using
// the per-operation energy model and end-to-end latency.
func (r *Report) EDP() float64 {
	return r.EnergyPerInputJ * r.LatencySeconds
}
