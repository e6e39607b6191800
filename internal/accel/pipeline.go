package accel

import "fmt"

// This file is a discrete-event simulation of the §4.3 pipeline: layers are
// stages connected by tile broadcast buffers, and a stream of inputs flows
// through them. "RAPIDNN works in a pipeline, meaning that when a block is
// writing values into a buffer, the next block (next layer) [is] accessing
// the previous values stored in the buffer." The event simulation validates
// the analytical model's steady-state throughput and exposes the fill/drain
// transients the closed-form model cannot see. A replicated stage (StageSpec
// with Replicas > 1) expands into a cascade of sub-stages, which is how the
// compilation pass's bottleneck duplication cuts the initiation interval.

// PipelineEvent records one stage's processing of one input.
type PipelineEvent struct {
	Input int
	Stage int   // sub-stage index (a replicated layer owns Replicas entries)
	Start int64 // cycle the stage begins
	End   int64 // cycle the stage's output is in the buffer
}

// PipelineResult is the timeline of a streamed batch.
type PipelineResult struct {
	Events []PipelineEvent
	// MakespanCycles is when the last input leaves the last stage.
	MakespanCycles int64
	// FirstLatency is input 0's end-to-end latency (pipeline fill).
	FirstLatency int64
	// SteadyInterval is the observed inter-departure interval in steady
	// state, which converges to the slowest sub-stage's cycle count.
	SteadyInterval int64
	// ThroughputIPS is the steady-state rate implied by SteadyInterval.
	ThroughputIPS float64
}

// SimulateStages streams `inputs` consecutive inferences through an explicit
// stage list — DefaultStages for the uncompiled mapping (the config's uniform
// sharing, no replication), a compiled schedule's stages otherwise. It is the
// event-simulation half of the compilation pass's validation contract. Stage s of input i can start only when (a) stage s
// finished input i−1 (the RNA blocks are busy until then) and (b) stage s−1
// finished input i (its operands are in the broadcast buffer) — the classic
// pipeline recurrence. Per-stage cycle counts (sharing stretch, replication
// cascade, multiplexing) come from the shared stage-cost helper, so the
// steady state provably converges to the analytic initiation interval.
func SimulateStages(stages []StageSpec, inputs int, cfg Config) (*PipelineResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if inputs < 1 {
		return nil, fmt.Errorf("accel: need at least one input, got %d", inputs)
	}
	for _, st := range stages {
		if st.Blocks < 1 || st.Replicas < 1 {
			return nil, fmt.Errorf("accel: stage %s has %d blocks x%d replicas",
				st.Plan.Name, st.Blocks, st.Replicas)
		}
	}
	cycleCounts := StageCycleCounts(stages, cfg)
	if len(cycleCounts) == 0 {
		return nil, fmt.Errorf("accel: no stages to simulate")
	}

	res := &PipelineResult{}
	// ready[s] = cycle stage s becomes free; prevDone = per-input completion
	// of the previous stage. FirstLatency and the steady-state interval fall
	// out of prevDone after the final stage's pass — no post-hoc rescan of
	// the Events slice.
	ready := make([]int64, len(cycleCounts))
	prevDone := make([]int64, inputs)
	res.Events = make([]PipelineEvent, 0, len(cycleCounts)*inputs)
	for s, cyc := range cycleCounts {
		for i := 0; i < inputs; i++ {
			start := prevDone[i]
			if ready[s] > start {
				start = ready[s]
			}
			end := start + cyc
			ready[s] = end
			res.Events = append(res.Events, PipelineEvent{Input: i, Stage: s, Start: start, End: end})
			prevDone[i] = end
		}
	}
	// After the last stage's pass prevDone holds every input's departure
	// time from the pipeline.
	res.MakespanCycles = prevDone[inputs-1]
	res.FirstLatency = prevDone[0]
	if inputs > 1 {
		res.SteadyInterval = prevDone[inputs-1] - prevDone[inputs-2]
	} else {
		res.SteadyInterval = res.FirstLatency
	}
	if res.SteadyInterval > 0 {
		res.ThroughputIPS = cfg.Dev.ClockHz / float64(res.SteadyInterval)
	}
	return res, nil
}
