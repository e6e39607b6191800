package rna

import (
	"math/rand"
	"testing"

	"repro/internal/composer"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// faultTestSeed parameterizes every fault scenario drawn in this file — the
// single knob to turn when investigating a seed-specific failure.
const faultTestSeed = 7

// buildFaultHW composes and lowers the small dense network every fault test
// shares, returning the hardware network plus a 40-row evaluation set.
func buildFaultHW(t *testing.T) (*HardwareNetwork, *tensor.Tensor, []int) {
	t.Helper()
	ds := dataset.Generate(dataset.Config{
		Name: "hwprot", NumClasses: 4, InputShape: []int{20},
		Train: 400, Test: 40, Noise: 0.12, ClassSimilarity: 0.3, Seed: 44,
	})
	rng := rand.New(rand.NewSource(44))
	net := nn.NewNetwork("hwprot").
		Add(nn.NewDense("fc1", 20, 16, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 16, 4, nn.Identity{}, rng))
	c := composeSmall(t, net, ds)
	re := composer.NewReinterpreted(c.Net, c.Plans)
	hw, err := BuildHardwareNetwork(re.Net(), c.Plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	testX := tensor.FromSlice(ds.TestX.Data()[:40*ds.InSize()], 40, ds.InSize())
	return hw, testX, ds.TestY[:40]
}

func mustErrorRate(t *testing.T, hw *HardwareNetwork, x *tensor.Tensor, labels []int) float64 {
	t.Helper()
	e, err := hw.ErrorRate(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The acceptance sweep of the reliability subsystem, all on ONE lowered
// network: find a stuck-fault rate where the unprotected design visibly
// degrades, show parity+spare-row protection restores accuracy to within
// noise of the fault-free baseline with both mechanisms demonstrably active,
// and show ClearFaults reverts to bit-identical pristine predictions — the
// overlay snapshot/restore that lets one network sweep many configurations.
func TestProtectionRestoresAccuracy(t *testing.T) {
	hw, testX, labels := buildFaultHW(t)
	basePreds, _, err := hw.InferBatchStats(testX)
	if err != nil {
		t.Fatal(err)
	}
	baseline := errorOf(basePreds, labels)

	// Scan upward until the unprotected network visibly degrades.
	var rate, unprot float64
	for _, r := range []float64{0.05, 0.1, 0.2} {
		rep, err := hw.InjectFaults(fault.Config{StuckRate: r, Seed: faultTestSeed})
		if err != nil {
			t.Fatal(err)
		}
		if rep.StuckBits == 0 {
			t.Fatalf("rate %v drew no corrupting faults", r)
		}
		unprot = mustErrorRate(t, hw, testX, labels)
		if unprot >= baseline+0.1 {
			rate = r
			break
		}
	}
	if rate == 0 {
		t.Fatalf("no scanned rate degraded the unprotected network (baseline %v, last %v)", baseline, unprot)
	}

	// Parity corrects the single-bit words; the spare budget remaps the
	// multi-bit ones worst-first. Together they restore the baseline. The
	// budget is deliberately smaller than the faulty-word population so
	// plenty of single-bit words are left for parity to demonstrably fix.
	hw.FaultCounters().Reset()
	hw.SetProtection(fault.Protection{Parity: true, SpareRows: 64})
	protected := mustErrorRate(t, hw, testX, labels)
	if protected > baseline+0.05 {
		t.Fatalf("parity+spare at rate %v left error %v, baseline %v, unprotected %v",
			rate, protected, baseline, unprot)
	}
	snap := hw.FaultCounters().Snapshot()
	if snap.Corrected == 0 {
		t.Fatal("parity never corrected a word — the mechanism did not engage")
	}
	if snap.Remapped == 0 {
		t.Fatal("no word was remapped to a spare row — the mechanism did not engage")
	}

	// Dropping the overlay (and protection) must restore the pristine
	// network exactly: same predictions bit for bit, not just same error.
	hw.SetProtection(fault.Protection{})
	hw.ClearFaults()
	restored, _, err := hw.InferBatchStats(testX)
	if err != nil {
		t.Fatal(err)
	}
	for i := range restored {
		if restored[i] != basePreds[i] {
			t.Fatalf("prediction %d changed after ClearFaults: %d vs pristine %d",
				i, restored[i], basePreds[i])
		}
	}
}

// TMR over three independently drawn CAM replicas must visibly recover from
// row failures that cripple the unprotected single-replica search.
func TestTMRRecoversCAMRowFaults(t *testing.T) {
	hw, testX, labels := buildFaultHW(t)
	baseline := mustErrorRate(t, hw, testX, labels)
	// All-dead rows (a vanishing short fraction): each replica loses its own
	// random 35% of rows, so per-query majority voting recovers the searches
	// a single replica gets wrong. (A shorted row would break its replica on
	// every query — voting cannot undo three constantly-shorted replicas,
	// which is why shorted parts are screened out at test, not TMR'd.)
	rep, err := hw.InjectFaults(fault.Config{CAMRowRate: 0.35, CAMShortFrac: 1e-9, Seed: faultTestSeed})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CAMRowsFailed == 0 {
		t.Fatal("30% row rate drew no failed rows")
	}
	unprot := mustErrorRate(t, hw, testX, labels)

	hw.FaultCounters().Reset()
	hw.SetProtection(fault.Protection{TMR: true})
	voted := mustErrorRate(t, hw, testX, labels)
	if hw.FaultCounters().Snapshot().TMRVotes == 0 {
		t.Fatal("TMR never voted")
	}
	if unprot > baseline+0.1 && voted >= unprot {
		t.Fatalf("TMR did not help: baseline %v, unprotected %v, voted %v", baseline, unprot, voted)
	}
	if voted > baseline+0.2 {
		t.Fatalf("TMR left error %v far above baseline %v (unprotected %v)", voted, baseline, unprot)
	}
}

// Transient read flips are mostly single-bit events, so parity should absorb
// them: the protected error stays near baseline and the counters show both
// the flips and the corrections.
func TestParityAbsorbsTransientFlips(t *testing.T) {
	hw, testX, labels := buildFaultHW(t)
	baseline := mustErrorRate(t, hw, testX, labels)
	if _, err := hw.InjectFaults(fault.Config{TransientRate: 0.002, Seed: faultTestSeed}); err != nil {
		t.Fatal(err)
	}
	hw.FaultCounters().Reset()
	hw.SetProtection(fault.Protection{Parity: true})
	protected := mustErrorRate(t, hw, testX, labels)
	snap := hw.FaultCounters().Snapshot()
	if snap.TransientFlips == 0 {
		t.Fatal("transient model never flipped a bit")
	}
	if snap.Corrected == 0 {
		t.Fatal("parity never corrected a transient flip")
	}
	if protected > baseline+0.1 {
		t.Fatalf("parity-protected transient error %v far above baseline %v", protected, baseline)
	}
}

// Block-level overlay properties: injection never touches the pristine
// product table, faulty reads are idempotent (a pinned cell re-reads the
// same), and a generous spare budget remaps every faulty word back to its
// pristine contents regardless of whether protection was configured before
// or after injection.
func TestFuncRNAOverlayProperties(t *testing.T) {
	wcb := []float32{-1, -0.25, 0.25, 1}
	ucb := []float32{-0.5, 0, 0.5, 0.75}
	r := NewFuncRNAShared(devPtr(), wcb, ucb, nil, []float32{-1, 0, 1}, productTable(wcb, ucb))

	pristine := make([][]int64, r.nW)
	for wi := 0; wi < r.nW; wi++ {
		pristine[wi] = append([]int64(nil), r.products[wi*r.nU:(wi+1)*r.nU]...)
	}

	// Protection first, injection second: reconcile must still repair.
	var cnt fault.Counters
	r.SetProtection(fault.Protection{SpareRows: len(wcb) * len(ucb)}, &cnt)
	if rep := r.injectFaults(fault.Config{StuckRate: 0.5}, rand.New(rand.NewSource(faultTestSeed)), &cnt); rep.StuckBits == 0 {
		t.Fatal("50% stuck rate drew nothing")
	}
	for wi := range pristine {
		for ui := range pristine[wi] {
			if r.products[wi*r.nU+ui] != pristine[wi][ui] {
				t.Fatalf("injection mutated the pristine table at (%d,%d)", wi, ui)
			}
			if got := r.readProduct(wi*r.nU + ui); got != pristine[wi][ui] {
				t.Fatalf("word (%d,%d) not repaired by an all-covering spare budget: %d vs %d",
					wi, ui, got, pristine[wi][ui])
			}
		}
	}

	// Without spares the overlay applies — and re-reads are idempotent.
	r.SetProtection(fault.Protection{}, &cnt)
	corrupted := false
	for wi := range pristine {
		for ui := range pristine[wi] {
			a, b := r.readProduct(wi*r.nU+ui), r.readProduct(wi*r.nU+ui)
			if a != b {
				t.Fatalf("stuck read not idempotent at (%d,%d): %d then %d", wi, ui, a, b)
			}
			if a != pristine[wi][ui] {
				corrupted = true
			}
		}
	}
	if !corrupted {
		t.Fatal("unprotected 50% stuck overlay corrupted nothing")
	}

	r.ClearFaults()
	for wi := range pristine {
		for ui := range pristine[wi] {
			if got := r.readProduct(wi*r.nU + ui); got != pristine[wi][ui] {
				t.Fatalf("ClearFaults did not restore (%d,%d)", wi, ui)
			}
		}
	}
}

// Equal seeds must draw equal fault maps: two injections with the same
// config yield identical predictions on the same inputs.
func TestInjectFaultsSeedDeterminism(t *testing.T) {
	hw, testX, _ := buildFaultHW(t)
	cfg := fault.Config{StuckRate: 0.1, CAMRowRate: 0.1, Seed: faultTestSeed}
	runOnce := func() []int {
		if _, err := hw.InjectFaults(cfg); err != nil {
			t.Fatal(err)
		}
		preds, _, err := hw.InferBatchStats(testX)
		if err != nil {
			t.Fatal(err)
		}
		return preds
	}
	a := runOnce()
	b := runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal seeds disagree at row %d: %d vs %d", i, a[i], b[i])
		}
	}
	hw.ClearFaults()
}

func errorOf(preds, labels []int) float64 {
	wrong := 0
	for i, p := range preds {
		if p != labels[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(preds))
}
