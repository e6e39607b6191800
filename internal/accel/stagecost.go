package accel

import (
	"math"

	"repro/internal/composer"
	"repro/internal/rna"
)

// This file is the single home of the per-stage cost math: how many RNA
// blocks a layer occupies (after §5.6 sharing), how long one input dwells in
// the stage (sharing stretch), how replication splits that dwell time into a
// cascade of sub-stages, and how time-multiplexing scales everything when
// the network exceeds the RNA population. The analytic model (Simulate), the
// discrete-event simulator (SimulateStages) and the compilation pass
// (internal/accel/compile) all price stages through these helpers, so the
// three cannot drift.

// StageSpec describes one pipeline stage's resource assignment: the layer it
// executes, the RNA blocks of one replica group, and the replication degree.
// Replicas > 1 splits each neuron's fan-in accumulation across R cascaded
// block groups; consecutive inputs pipeline through the cascade, so the
// stage's initiation-interval contribution drops to roughly 1/R of its dwell
// time while the single-input latency grows slightly (each boundary pays one
// extra compressor pass folding the incoming partial sum).
type StageSpec struct {
	Plan *composer.LayerPlan
	// Blocks is the RNA blocks of one replica group (neurons after sharing).
	Blocks int
	// Replicas is the number of cascaded block groups (1 = unreplicated).
	Replicas int
}

// EffectiveBlocks returns the RNA blocks a layer occupies after sharing:
// shareFraction of a compute layer's neurons double up with a neighbour's
// block (§5.6). Non-compute layers and shareFraction 0 keep one block per
// neuron.
func EffectiveBlocks(p *composer.LayerPlan, shareFraction float64) int {
	blocks := p.Neurons
	if p.IsCompute() && shareFraction > 0 {
		blocks = p.Neurons - int(math.Round(float64(p.Neurons)*shareFraction))
		if blocks < 1 {
			blocks = 1
		}
	}
	return blocks
}

// DefaultStages lowers the executable layers of a plan list into the
// uncompiled mapping: the config's uniform ShareFraction, no replication.
// Dropout layers are skipped — they do not exist on the accelerator.
func DefaultStages(plans []*composer.LayerPlan, cfg Config) []StageSpec {
	var stages []StageSpec
	for _, p := range plans {
		if p.Kind == composer.KindDropout {
			continue
		}
		stages = append(stages, StageSpec{
			Plan:     p,
			Blocks:   EffectiveBlocks(p, cfg.ShareFraction),
			Replicas: 1,
		})
	}
	return stages
}

// TotalBlocks is the RNA blocks the stage occupies across all replica
// groups.
func (st StageSpec) TotalBlocks() int {
	r := st.Replicas
	if r < 1 {
		r = 1
	}
	return st.Blocks * r
}

// BaseCycles returns one input's dwell time in an unreplicated group: the
// per-neuron latency stretched by sharing serialization (only shareOverlap
// of each extra neuron's work fails to pipeline with its block-mate).
func (st StageSpec) BaseCycles(cm rna.CostModel, shareOverlap float64) int64 {
	nc := cm.NeuronCycles(st.Plan)
	extra := float64(st.Plan.Neurons)/float64(st.Blocks) - 1
	stretch := 1 + shareOverlap*extra
	return int64(math.Ceil(float64(nc) * stretch))
}

// SubCycles returns the cycle count of one cascade sub-stage — the stage's
// initiation-interval contribution before multiplexing. With R replica
// groups each group handles 1/R of the fan-in plus one merge pass folding
// the upstream partial sum.
func (st StageSpec) SubCycles(cm rna.CostModel, shareOverlap float64) int64 {
	base := st.BaseCycles(cm, shareOverlap)
	r := int64(st.Replicas)
	if r <= 1 {
		return base
	}
	return (base+r-1)/r + cm.ReplicaMergeCost(st.Plan).Cycles
}

// RequiredBlocks sums the RNA blocks a stage list occupies.
func RequiredBlocks(stages []StageSpec) int {
	total := 0
	for _, st := range stages {
		total += st.TotalBlocks()
	}
	return total
}

// MultiplexFactor returns the time-multiplexing stretch of a stage list on a
// deployment: 1 when the blocks fit, required/available otherwise (§5.5's
// 1-chip vs 8-chip gap).
func MultiplexFactor(stages []StageSpec, cfg Config) float64 {
	required := RequiredBlocks(stages)
	available := cfg.Chips * cfg.Dev.RNAsPerChip()
	if required <= available {
		return 1
	}
	return float64(required) / float64(available)
}

// StageCycleCounts expands a stage list into per-sub-stage cycle counts with
// multiplexing applied (the stretch rounds up): stage i contributes
// Replicas_i consecutive entries. This is exactly the stage sequence the
// event simulator executes and the analytic model folds (II = max entry,
// latency = Σ entries).
func StageCycleCounts(stages []StageSpec, cfg Config) []int64 {
	cm := rna.CostModel{Dev: cfg.Dev}
	mult := MultiplexFactor(stages, cfg)
	var out []int64
	for _, st := range stages {
		sub := st.SubCycles(cm, cfg.ShareOverlap)
		if mult > 1 {
			sub = int64(math.Ceil(float64(sub) * mult))
		}
		r := st.Replicas
		if r < 1 {
			r = 1
		}
		for i := 0; i < r; i++ {
			out = append(out, sub)
		}
	}
	return out
}

// AnalyticPipeline folds a stage list into the closed-form pipeline metrics:
// the initiation interval (slowest sub-stage, sets throughput) and the
// single-input latency (sum of all sub-stages).
func AnalyticPipeline(stages []StageSpec, cfg Config) (ii, latency int64) {
	for _, c := range StageCycleCounts(stages, cfg) {
		latency += c
		if c > ii {
			ii = c
		}
	}
	return ii, latency
}
