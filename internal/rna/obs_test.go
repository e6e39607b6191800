package rna

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// tracedHW builds a tiny synthetic hardware network, no compose run needed.
func tracedHW(t *testing.T) *HardwareNetwork {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	net := nn.NewNetwork("obs").
		Add(nn.NewDense("fc1", 10, 8, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 8, 3, nn.Identity{}, rng))
	plans := composer.SyntheticPlans(net, 8, 8, 16)
	hw, err := BuildHardwareNetwork(net, plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	return hw
}

// A traced network must record one span per layer per input plus the batch
// span, named after the layers, and the names must survive into the Chrome
// trace export.
func TestHardwareNetworkLayerSpans(t *testing.T) {
	hw := tracedHW(t)
	hw.Trace = obs.NewTracer(256)
	x := tensor.FromSlice(make([]float32, 3*10), 3, 10)
	if _, _, err := hw.InferBatchStats(x); err != nil {
		t.Fatal(err)
	}
	// 3 rows × 2 layers + 1 batch span.
	if hw.Trace.Len() != 7 {
		t.Fatalf("recorded %d spans, want 7", hw.Trace.Len())
	}
	var b strings.Builder
	if err := hw.Trace.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"fc1"`, `"out"`, `"infer_batch"`, `"rows":"3"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
}

// An instrumented network must fold every successful inference into its
// registry counters, matching the Stats totals exactly.
func TestHardwareNetworkInstrument(t *testing.T) {
	hw := tracedHW(t)
	reg := obs.NewRegistry()
	hw.Instrument(reg, obs.L("model", "obs"))

	var total crossbar.Stats
	for _, rows := range []int{1, 2} {
		_, st, err := hw.InferBatchStats(tensor.FromSlice(make([]float32, rows*10), rows, 10))
		if err != nil {
			t.Fatal(err)
		}
		total = addStats(total, st)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `rapidnn_rna_inferences_total{model="obs"} 3`) {
		t.Fatalf("inference counter wrong:\n%s", out)
	}
	// The counters must agree with the returned Stats, summed in call order.
	cyc := hw.nobs.cycles.Value()
	if cyc == 0 || int64(cyc) != total.Cycles {
		t.Fatalf("cycle counter %d vs Stats.Cycles %d", cyc, total.Cycles)
	}
	if e := hw.nobs.energy.Value(); e != total.EnergyJ {
		t.Fatalf("energy counter %v vs Stats.EnergyJ %v", e, total.EnergyJ)
	}
}

// An untraced, uninstrumented network must behave exactly as before — the
// nil checks are the entire cost.
func TestHardwareNetworkUntracedUnchanged(t *testing.T) {
	a, b := tracedHW(t), tracedHW(t)
	b.Trace = obs.NewTracer(1024)
	b.Instrument(obs.NewRegistry())
	x := tensor.FromSlice(make([]float32, 4*10), 4, 10)
	pa, sa, err := a.InferBatchStats(x)
	if err != nil {
		t.Fatal(err)
	}
	pb, sb, err := b.InferBatchStats(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("prediction %d diverged: %d vs %d", i, pa[i], pb[i])
		}
	}
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
}
