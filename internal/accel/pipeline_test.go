package accel

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/composer"
)

func TestPipelineSingleInputLatencyMatchesAnalytic(t *testing.T) {
	plans, macs := fcPlans()
	analytic, err := Simulate("MNIST", plans, macs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := SimulateStages(DefaultStages(plans, DefaultConfig()), 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pipe.FirstLatency != analytic.LatencyCycles {
		t.Fatalf("event-sim latency %d != analytic %d", pipe.FirstLatency, analytic.LatencyCycles)
	}
}

func TestPipelineSteadyStateMatchesAnalyticThroughput(t *testing.T) {
	plans, macs := fcPlans()
	analytic, err := Simulate("MNIST", plans, macs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := SimulateStages(DefaultStages(plans, DefaultConfig()), 50, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pipe.SteadyInterval != analytic.PipelineCycles {
		t.Fatalf("steady interval %d != analytic pipeline interval %d",
			pipe.SteadyInterval, analytic.PipelineCycles)
	}
	if math.Abs(pipe.ThroughputIPS-analytic.ThroughputIPS) > analytic.ThroughputIPS*1e-9 {
		t.Fatalf("throughput %v != %v", pipe.ThroughputIPS, analytic.ThroughputIPS)
	}
}

// The pipeline recurrence invariants: a stage never starts an input before
// the previous stage delivered it, never before it finished the previous
// input, and events are causally ordered.
func TestPipelineCausality(t *testing.T) {
	plans, _ := convPlans()
	pipe, err := SimulateStages(DefaultStages(plans, DefaultConfig()), 12, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ input, stage int }
	byKey := map[key]PipelineEvent{}
	maxStage := 0
	for _, e := range pipe.Events {
		byKey[key{e.Input, e.Stage}] = e
		if e.Stage > maxStage {
			maxStage = e.Stage
		}
		if e.End <= e.Start {
			t.Fatalf("event %+v has non-positive duration", e)
		}
	}
	for k, e := range byKey {
		if k.stage > 0 {
			if prev := byKey[key{k.input, k.stage - 1}]; e.Start < prev.End {
				t.Fatalf("input %d stage %d starts before previous stage finished", k.input, k.stage)
			}
		}
		if k.input > 0 {
			if prev := byKey[key{k.input - 1, k.stage}]; e.Start < prev.End {
				t.Fatalf("stage %d starts input %d before finishing input %d", k.stage, k.input, k.input-1)
			}
		}
	}
	_ = maxStage
}

// Pipelining must approach the ideal: makespan ≈ fill + (n−1)·bottleneck,
// far below n × single-input latency.
func TestPipelineOverlapsInputs(t *testing.T) {
	plans, _ := fcPlans()
	const n = 40
	pipe, err := SimulateStages(DefaultStages(plans, DefaultConfig()), n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial := pipe.FirstLatency * int64(n)
	if pipe.MakespanCycles >= serial {
		t.Fatalf("pipeline (%d cycles) no better than serial (%d)", pipe.MakespanCycles, serial)
	}
	ideal := pipe.FirstLatency + int64(n-1)*pipe.SteadyInterval
	if pipe.MakespanCycles != ideal {
		t.Fatalf("makespan %d, ideal pipeline predicts %d", pipe.MakespanCycles, ideal)
	}
}

func TestPipelineValidation(t *testing.T) {
	plans, _ := fcPlans()
	if _, err := SimulateStages(DefaultStages(plans, DefaultConfig()), 0, DefaultConfig()); err == nil {
		t.Fatal("zero inputs must error")
	}
	if _, err := SimulateStages(DefaultStages(nil, DefaultConfig()), 1, DefaultConfig()); err == nil {
		t.Fatal("no stages must error")
	}
	bad := DefaultConfig()
	bad.Chips = 0
	if _, err := SimulateStages(DefaultStages(plans, bad), 1, bad); err == nil {
		t.Fatal("bad config must error")
	}
}

// Multiplexing stretches the event simulation exactly like the analytic one.
func TestPipelineMultiplexConsistency(t *testing.T) {
	plans, macs := convPlans() // exceeds one chip
	analytic, err := Simulate("CIFAR", plans, macs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := SimulateStages(DefaultStages(plans, DefaultConfig()), 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if analytic.Multiplex <= 1 {
		t.Fatal("expected an over-capacity workload")
	}
	if pipe.SteadyInterval != analytic.PipelineCycles {
		t.Fatalf("multiplexed steady interval %d != analytic %d",
			pipe.SteadyInterval, analytic.PipelineCycles)
	}
}

func TestPipelineEventCount(t *testing.T) {
	plans, _ := fcPlans()
	stages := 0
	for _, p := range plans {
		if p.Kind != composer.KindDropout {
			stages++
		}
	}
	pipe, err := SimulateStages(DefaultStages(plans, DefaultConfig()), 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.Events) != stages*7 {
		t.Fatalf("%d events, want %d", len(pipe.Events), stages*7)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	plans, _ := fcPlans()
	pipe, err := SimulateStages(DefaultStages(plans, DefaultConfig()), 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipe.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	var slices, meta int
	var prevTs int64 = -1
	for _, e := range decoded.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %+v", e)
			}
		case "X":
			if e.Dur <= 0 {
				t.Fatalf("malformed trace event %+v", e)
			}
			if e.Ts < prevTs {
				t.Fatalf("slices not sorted by timestamp: %d after %d", e.Ts, prevTs)
			}
			prevTs = e.Ts
			if slices == 0 && e.Name != "input 0" {
				t.Fatalf("first slice name %q", e.Name)
			}
			slices++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if slices != len(pipe.Events) {
		t.Fatalf("%d trace slices for %d pipeline events", slices, len(pipe.Events))
	}
	stages := map[int]bool{}
	for _, e := range pipe.Events {
		stages[e.Stage] = true
	}
	if meta != len(stages) {
		t.Fatalf("%d track-name events for %d stages", meta, len(stages))
	}
}

// The export is pinned byte for byte: one "stage N" track for every stage up
// to the highest (stage 1 has no slice here), slices ordered by (ts, tid,
// name) and then by event order, and an empty timeline still writes an
// event array.
func TestWriteChromeTraceBytes(t *testing.T) {
	p := &PipelineResult{Events: []PipelineEvent{
		{Input: 1, Stage: 0, Start: 5, End: 9},
		{Input: 0, Stage: 2, Start: 0, End: 4},
		{Input: 0, Stage: 0, Start: 0, End: 5},
		{Input: 10, Stage: 0, Start: 5, End: 6},
		{Input: 2, Stage: 3, Start: 9, End: 12},
		{Input: 1, Stage: 0, Start: 5, End: 7},
	}}
	const want = `{"traceEvents":[{"name":"thread_name","cat":"","ph":"M","ts":0,"dur":0,"pid":1,"tid":0,"args":{"name":"stage 0"}},{"name":"thread_name","cat":"","ph":"M","ts":0,"dur":0,"pid":1,"tid":1,"args":{"name":"stage 1"}},{"name":"thread_name","cat":"","ph":"M","ts":0,"dur":0,"pid":1,"tid":2,"args":{"name":"stage 2"}},{"name":"thread_name","cat":"","ph":"M","ts":0,"dur":0,"pid":1,"tid":3,"args":{"name":"stage 3"}},{"name":"input 0","cat":"rna-stage","ph":"X","ts":0,"dur":5,"pid":1,"tid":0},{"name":"input 0","cat":"rna-stage","ph":"X","ts":0,"dur":4,"pid":1,"tid":2},{"name":"input 1","cat":"rna-stage","ph":"X","ts":5,"dur":4,"pid":1,"tid":0},{"name":"input 1","cat":"rna-stage","ph":"X","ts":5,"dur":2,"pid":1,"tid":0},{"name":"input 10","cat":"rna-stage","ph":"X","ts":5,"dur":1,"pid":1,"tid":0},{"name":"input 2","cat":"rna-stage","ph":"X","ts":9,"dur":3,"pid":1,"tid":3}]}` + "\n"
	for _, c := range []struct {
		p    *PipelineResult
		want string
	}{{p, want}, {&PipelineResult{}, `{"traceEvents":[]}` + "\n"}} {
		var b bytes.Buffer
		if err := c.p.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != c.want {
			t.Fatalf("trace bytes moved:\ngot  %s\nwant %s", b.String(), c.want)
		}
	}
}

// A replicated stage expands into a cascade of sub-stages in the event
// simulation: the steady interval drops to the analytic II of the replicated
// stage list and the fill latency matches the analytic sum, exactly.
func TestSimulateStagesReplicationCutsInterval(t *testing.T) {
	plans, _ := fcPlans()
	cfg := DefaultConfig()
	base, err := SimulateStages(DefaultStages(plans, cfg), 40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stages := DefaultStages(plans, cfg)
	// Replicate the bottleneck stage (fc1, the widest fan-in).
	stages[0].Replicas = 2
	rep, err := SimulateStages(stages, 40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SteadyInterval >= base.SteadyInterval {
		t.Fatalf("replication did not cut the interval: %d -> %d",
			base.SteadyInterval, rep.SteadyInterval)
	}
	wantII, wantLat := AnalyticPipeline(stages, cfg)
	if rep.SteadyInterval != wantII {
		t.Fatalf("event interval %d != analytic II %d", rep.SteadyInterval, wantII)
	}
	if rep.FirstLatency != wantLat {
		t.Fatalf("event fill latency %d != analytic %d", rep.FirstLatency, wantLat)
	}
	// The cascade adds a merge pass, so the single-input latency grows.
	if rep.FirstLatency <= base.FirstLatency {
		t.Fatalf("cascade latency %d should exceed unreplicated %d",
			rep.FirstLatency, base.FirstLatency)
	}
	// One extra sub-stage worth of events per input.
	if len(rep.Events) != len(base.Events)+40 {
		t.Fatalf("%d events, want %d", len(rep.Events), len(base.Events)+40)
	}
}

func TestSimulateStagesRejectsDegenerateStages(t *testing.T) {
	plans, _ := fcPlans()
	cfg := DefaultConfig()
	stages := DefaultStages(plans, cfg)
	stages[1].Replicas = 0
	if _, err := SimulateStages(stages, 4, cfg); err == nil {
		t.Fatal("zero-replica stage must be rejected")
	}
}
