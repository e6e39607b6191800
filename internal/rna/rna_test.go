package rna

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/composer"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/quant"
)

func dev() device.Params { return device.Default() }

// devPtr is a fresh default device for a block built outside a network, which
// borrows its Params by pointer.
func devPtr() *device.Params { d := dev(); return &d }

// productTable is the crossbar product table the composer configures a
// (wcb, ucb) block with.
func productTable(wcb, ucb []float32) []int64 {
	p := &composer.LayerPlan{WeightCodebooks: [][]float32{wcb}, InputCodebook: ucb}
	return p.ProductTable(0)
}

func densePlan(w, u, edges, neurons int, withTable bool) *composer.LayerPlan {
	p := &composer.LayerPlan{
		Kind:            composer.KindDense,
		Neurons:         neurons,
		Edges:           edges,
		WeightCodebooks: [][]float32{make([]float32, w)},
		ChannelCodebook: []int{0},
		InputCodebook:   make([]float32, u),
	}
	if withTable {
		p.ActTable = quant.BuildActTable(nn.Sigmoid{}, 64, -8, 8, quant.NonLinear)
	}
	return p
}

func TestNeuronCostBlocksPopulated(t *testing.T) {
	m := CostModel{Dev: dev()}
	b := m.NeuronCost(densePlan(64, 64, 1024, 512, true))
	for _, blk := range []Block{WeightedAccum, Activation, Encoding, Other} {
		if b[blk].Cycles == 0 || b[blk].EnergyJ == 0 {
			t.Fatalf("block %v has zero cost", blk)
		}
	}
	if b[Pooling].Cycles != 0 {
		t.Fatal("dense neuron must not charge the pooling block")
	}
}

// The paper's headline breakdown (Fig. 13): weighted accumulation dominates
// with ~77–81 % of energy and time.
func TestWeightedAccumDominates(t *testing.T) {
	m := CostModel{Dev: dev()}
	b := m.NeuronCost(densePlan(64, 64, 1024, 512, true))
	tot := b.Total()
	eShare := b[WeightedAccum].EnergyJ / tot.EnergyJ
	cShare := float64(b[WeightedAccum].Cycles) / float64(tot.Cycles)
	if eShare < 0.6 || eShare > 0.98 {
		t.Fatalf("weighted-accum energy share %.2f, want ≈0.77–0.81", eShare)
	}
	if cShare < 0.6 || cShare > 0.999 {
		t.Fatalf("weighted-accum cycle share %.2f, want dominant", cShare)
	}
}

// Energy must grow with the input codebook size faster than with the weight
// codebook size, because u sizes both the crossbar and the encoder AM
// (§5.4: "the number of encoded inputs has a higher impact on energy").
func TestInputCodebookCostsMoreThanWeights(t *testing.T) {
	m := CostModel{Dev: dev()}
	base := m.NeuronCost(densePlan(16, 16, 1024, 512, true)).Total().EnergyJ
	moreU := m.NeuronCost(densePlan(16, 64, 1024, 512, true)).Total().EnergyJ
	moreW := m.NeuronCost(densePlan(64, 16, 1024, 512, true)).Total().EnergyJ
	if moreU <= base || moreW <= base {
		t.Fatal("bigger codebooks must cost more energy")
	}
	if moreU <= moreW {
		t.Fatalf("u-scaling (%.3g J) must exceed w-scaling (%.3g J)", moreU, moreW)
	}
}

// More-weights has little effect on performance: results are fetched by
// direct row addressing (§5.4).
func TestWeightCountBarelyAffectsCycles(t *testing.T) {
	m := CostModel{Dev: dev()}
	c16 := m.NeuronCost(densePlan(16, 64, 1024, 512, true)).Total().Cycles
	c64 := m.NeuronCost(densePlan(64, 64, 1024, 512, true)).Total().Cycles
	ratio := float64(c16) / float64(c64)
	if ratio < 0.7 || ratio > 1.5 {
		t.Fatalf("cycles ratio w=16/w=64 is %.2f, want ≈1", ratio)
	}
}

func TestPoolNeuronCost(t *testing.T) {
	m := CostModel{Dev: dev()}
	p := &composer.LayerPlan{Kind: composer.KindPool, Neurons: 64, Edges: 4}
	b := m.NeuronCost(p)
	if b[Pooling].Cycles == 0 || b[Pooling].EnergyJ == 0 {
		t.Fatal("pooling neuron must charge the pooling block")
	}
	if b[WeightedAccum].Cycles != 0 {
		t.Fatal("pooling neuron must not charge weighted accumulation")
	}
	bigger := m.NeuronCost(&composer.LayerPlan{Kind: composer.KindPool, Neurons: 64, Edges: 16})
	if bigger[Pooling].Cycles <= b[Pooling].Cycles {
		t.Fatal("larger windows must cost more")
	}
}

func TestDropoutPlanCostsNothing(t *testing.T) {
	m := CostModel{Dev: dev()}
	p := &composer.LayerPlan{Kind: composer.KindDropout}
	if c := m.NeuronCost(p).Total(); c.Cycles != 0 || c.EnergyJ != 0 {
		t.Fatal("dropout must be free at inference")
	}
}

func TestReconfigureCostScalesWithTables(t *testing.T) {
	m := CostModel{Dev: dev()}
	small := m.ReconfigureCost(densePlan(4, 4, 128, 8, true))
	big := m.ReconfigureCost(densePlan(64, 64, 128, 8, true))
	if big.EnergyJ <= small.EnergyJ {
		t.Fatal("bigger tables must cost more to program")
	}
	if c := m.ReconfigureCost(&composer.LayerPlan{Kind: composer.KindPool}); c.EnergyJ != 0 {
		t.Fatal("pool layers have no tables to program")
	}
}

func TestSumBits(t *testing.T) {
	m := CostModel{Dev: dev()}
	// 10 product bits + ceil(log2(1025)) = 10 + 11 = 21.
	if got := m.SumBits(1024); got != 21 {
		t.Fatalf("SumBits(1024) = %d, want 21", got)
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	var a, b Breakdown
	a[WeightedAccum] = Cost{Cycles: 10, EnergyJ: 1}
	b[WeightedAccum] = Cost{Cycles: 5, EnergyJ: 2}
	b[Encoding] = Cost{Cycles: 1, EnergyJ: 0.5}
	a.Add(b)
	if a[WeightedAccum].Cycles != 15 || a[Encoding].EnergyJ != 0.5 {
		t.Fatal("Breakdown.Add broken")
	}
	a.ScaleInPlace(2)
	if a[WeightedAccum].Cycles != 30 {
		t.Fatal("ScaleInPlace broken")
	}
	tot := a.Total()
	if tot.Cycles != 30+2 || math.Abs(tot.EnergyJ-(6+1)) > 1e-12 {
		t.Fatalf("Total = %+v", tot)
	}
}

// ---- Functional RNA ----

// randomCodebook returns sorted random centers.
func randomCodebook(rng *rand.Rand, n int, scale float64) []float32 {
	cb := make([]float32, n)
	for i := range cb {
		cb[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	sort.Slice(cb, func(i, j int) bool { return cb[i] < cb[j] })
	return cb
}

// TestFuncRNAMatchesSoftware fires hardware neurons and compares them with
// the float-math reinterpreted computation. Fixed-point rounding and the
// NDCAM's XOR approximation allow small deviations, so the test checks that
// the decoded outputs stay close and agree exactly most of the time.
func TestFuncRNAMatchesSoftware(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 100
	exact := 0
	var meanErr float64
	for trial := 0; trial < trials; trial++ {
		w, u := 8, 16
		wcb := randomCodebook(rng, w, 0.5)
		ucb := randomCodebook(rng, u, 1.0)
		// The encoder codebook is built from the activations themselves in
		// the real pipeline, so it spans the sigmoid's (0,1) output range.
		next := make([]float32, 16)
		for i := range next {
			next[i] = rng.Float32()
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		bias := float32(rng.Float64()*0.2 - 0.1)
		tab := quant.BuildActTable(nn.Sigmoid{}, 64, -8, 8, quant.NonLinear)
		r := NewFuncRNAShared(devPtr(), wcb, ucb, tab, next, productTable(wcb, ucb))

		edges := 64
		wi := make([]int, edges)
		ui := make([]int, edges)
		var pre float64
		for i := 0; i < edges; i++ {
			wi[i] = rng.Intn(w)
			ui[i] = rng.Intn(u)
			pre += float64(wcb[wi[i]]) * float64(ucb[ui[i]])
		}
		pre += float64(bias)
		zSW := float64(tab.Eval(float32(pre)))
		encSW := cluster.Assign(next, float32(zSW))

		encHW, _ := fire(r, offsets(r, wi), ui, quant.ToFixed(float64(bias), 16), NewScratch())
		valHW := next[encHW]
		if encHW == encSW {
			exact++
		}
		d := math.Abs(float64(valHW) - float64(next[encSW]))
		meanErr += d
		if d > 0.6 {
			t.Fatalf("hardware output %v too far from software %v (pre=%v)", valHW, next[encSW], pre)
		}
	}
	// The NDCAM's XOR-weighted search is the hardware's approximation of
	// absolute-nearest; exact index agreement is high but not total, and the
	// decoded deviation stays small on average.
	if exact < trials*55/100 {
		t.Fatalf("hardware agreed exactly on only %d/%d neurons", exact, trials)
	}
	if meanErr/trials > 0.08 {
		t.Fatalf("mean decoded deviation %v", meanErr/trials)
	}
}

func TestFuncRNAReLUComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wcb := randomCodebook(rng, 4, 0.5)
	ucb := randomCodebook(rng, 4, 1.0)
	next := []float32{0, 0.25, 0.5, 1}
	r := NewFuncRNAShared(devPtr(), wcb, ucb, nil, next, productTable(wcb, ucb))
	// All-most-negative weights on positive inputs → ReLU clamps to 0.
	wi := []int{0, 0, 0, 0}
	ui := []int{3, 3, 3, 3}
	if wcb[0] < 0 && ucb[3] > 0 {
		enc, _ := fire(r, offsets(r, wi), ui, 0, NewScratch())
		if val := next[enc]; enc != 0 || val != 0 {
			t.Fatalf("negative pre-activation must encode to 0, got idx %d val %v", enc, val)
		}
	}
}

func TestFuncRNAChargesSubstrateWork(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	wcb := randomCodebook(rng, 8, 0.5)
	ucb := randomCodebook(rng, 8, 1.0)
	next := randomCodebook(rng, 8, 1.0)
	r := NewFuncRNAShared(devPtr(), wcb, ucb, nil, next, productTable(wcb, ucb))
	wi := make([]int, 32)
	ui := make([]int, 32)
	for i := range wi {
		wi[i], ui[i] = rng.Intn(8), rng.Intn(8)
	}
	if _, st := fire(r, offsets(r, wi), ui, quant.ToFixed(0.1, 16), NewScratch()); st.NORs == 0 || st.EnergyJ == 0 {
		t.Fatal("a neuron fire must accrue crossbar NOR work")
	}
}

// The hardware's max pooling — the window written into the encoder CAM and
// searched for the nearest to +∞ — picks the largest encoded index, which is
// what the executor computes directly.
func TestFuncRNAMaxPool(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	wcb := randomCodebook(rng, 4, 0.5)
	ucb := []float32{-1, -0.25, 0.25, 1}
	r := NewFuncRNAShared(devPtr(), wcb, ucb, nil, ucb, productTable(wcb, ucb))
	if got, _ := maxPoolOracle(r, ucb, []int{1, 3, 0, 2}); got != 3 {
		t.Fatalf("max pool picked index %d, want 3", got)
	}
	if got, _ := maxPoolOracle(r, ucb, []int{2}); got != 2 {
		t.Fatalf("singleton max pool = %d", got)
	}
}

func TestFuncRNAValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewFuncRNAShared(devPtr(), nil, []float32{1}, nil, []float32{1}, []int64{1}) },
		func() { NewFuncRNAShared(devPtr(), []float32{1}, []float32{1}, nil, []float32{1}, []int64{1, 2}) },
		// No table, no block: the composer is the only producer of tables.
		func() { NewFuncRNAShared(devPtr(), []float32{1}, []float32{1}, nil, []float32{1}, nil) },
		func() {
			r := NewFuncRNAShared(devPtr(), []float32{1}, []float32{1}, nil, []float32{1}, []int64{1})
			r.AccumulateBiasScratch([]int32{0}, []int{0, 1}, 0, NewScratch())
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
