package rna

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/ndcam"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// fire evaluates one neuron the way the executor's dense loop does —
// accumulate, activate, encode — in the caller's scratch, returning the
// encoded output index and the crossbar activity.
func fire(r *FuncRNA, wi, ui []int, bias int64, s *Scratch) (int, crossbar.Stats) {
	pre, st := r.AccumulateBiasScratch(wi, ui, bias, s)
	return r.encodeValue(r.activate(pre, s), s), st
}

// maxPoolOracle runs one max-pooling window the way the hardware does it
// (§4.2.1): a fresh 16-bit encoder CAM is filled with the window's encoded
// values (cb is the codebook the indices point into) and a nearest-to-+∞
// search finds the largest. It returns the winning index and the CAM's write
// and search activity — the walk poolCAMStats prices in closed form.
func maxPoolOracle(r *FuncRNA, cb []float32, win []int) (int, crossbar.Stats) {
	cam := ndcam.New(r.dev, 16, ndcam.Weighted)
	for _, e := range win {
		cam.Write(r.encFP.Encode(float64(cb[e])))
	}
	row, search := cam.Search(r.encFP.Encode(math.Inf(1)), nil)
	w := cam.Stats
	return win[row], crossbar.Stats{
		Cycles:  w.Cycles + search.Cycles,
		Writes:  w.Writes,
		EnergyJ: w.EnergyJ + search.EnergyJ,
	}
}

// The acceptance bar of the zero-allocation work: once a worker owns a
// Scratch, the fault-free neuron fire — counting, shift-add expansion, NOR
// addition, activation search, encoder search — performs zero heap
// allocations in steady state.
func TestEvalScratchZeroAllocs(t *testing.T) {
	r, wi, ui := hotNeuron()
	s := NewScratch()
	fire(r, wi, ui, 0, s) // grow the scratch to the working-set size
	allocs := testing.AllocsPerRun(200, func() {
		fire(r, wi, ui, 0, s)
	})
	if allocs != 0 {
		t.Fatalf("fault-free neuron fire allocates %v per op, want 0", allocs)
	}
}

// Max pooling is priced in closed form (poolCAMStats), so a warm scratch
// classifies an input through a conv + max-pool network without allocating.
func TestMaxPoolStatsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2D("cv", g, 2, nn.ReLU{}, rng)
	pc, ph, pw := conv.OutGeom()
	pool := nn.NewPool2D("pl", nn.MaxPool, tensor.ConvGeom{InC: pc, InH: ph, InW: pw, KH: 2, KW: 2, Stride: 2})
	qc, qh, qw := pool.OutGeom()
	net := nn.NewNetwork("pool").Add(conv).Add(pool).Add(nn.NewDense("out", qc*qh*qw, 3, nn.Identity{}, rng))
	hw, err := BuildHardwareNetwork(net, composer.SyntheticPlans(net, 8, 8, 16), dev())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, hw.InSize())
	for i := range x {
		x[i] = 2*rng.Float32() - 1
	}
	s := NewScratch()
	if _, _, err := hw.inferOne(x, s); err != nil { // grow the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		hw.inferOne(x, s)
	})
	if allocs != 0 {
		t.Fatalf("conv + max-pool inference allocates %v per input, want 0", allocs)
	}
}

// Scratch reuse is invisible in results: a fresh Scratch per call and one
// Scratch reused across every call must agree on the encoded index, the
// pre-activation and the substrate stats for arbitrary edge lists — a dirty
// reused buffer must never leak state into the next evaluation. The RNA's own
// CAM counters must stay untouched throughout: searches return their
// activity instead of accumulating it.
func TestScratchReuseBitIdentical(t *testing.T) {
	r, _, _ := hotNeuron()
	rng := rand.New(rand.NewSource(21))
	actStats, encStats := r.actCAM.Stats, r.encCAM.Stats // configuration-time writes
	reused := NewScratch()
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(96)
		wi := make([]int, n)
		ui := make([]int, n)
		for i := range wi {
			wi[i], ui[i] = rng.Intn(16), rng.Intn(16)
		}
		bias := int64(rng.Intn(1<<12) - 1<<11)

		enc1, st1 := fire(r, wi, ui, bias, NewScratch())
		enc2, st2 := fire(r, wi, ui, bias, reused)
		if enc1 != enc2 {
			t.Fatalf("trial %d: results diverge: fresh %d, reused %d", trial, enc1, enc2)
		}
		if st1 != st2 {
			t.Fatalf("trial %d: stats diverge: fresh %+v, reused %+v", trial, st1, st2)
		}

		pre0, _ := r.AccumulateBiasScratch(wi, ui, bias, NewScratch())
		pre1, _ := r.AccumulateBiasScratch(wi, ui, bias, reused)
		if pre0 != pre1 {
			t.Fatalf("trial %d: pre-activation diverges: fresh %v, reused scratch %v", trial, pre0, pre1)
		}
	}
	if r.actCAM.Stats != actStats || r.encCAM.Stats != encStats {
		t.Fatalf("evaluation mutated CAM stats: act %+v, enc %+v", r.actCAM.Stats, r.encCAM.Stats)
	}
}

// poolCAMStats prices a max-pooling window in closed form: one CAM write per
// window entry plus the pipelined search. It must charge what the CAM walk
// accrues — writes and cycles exactly. The walk adds the write energy one
// row at a time where poolCAMStats multiplies, so energy agrees to rounding.
func TestMaxPoolRecordsCAMStats(t *testing.T) {
	cb := make([]float32, 16)
	for i := range cb {
		cb[i] = float32(i)/8 - 1
	}
	r := NewFuncRNAShared(dev(), cb, cb, nil, true, cb, 16, nil)
	rng := rand.New(rand.NewSource(22))
	for size := 1; size <= 9; size++ {
		win := make([]int, size)
		best := 0
		for i := range win {
			win[i] = rng.Intn(len(cb))
			if win[i] > best {
				best = win[i]
			}
		}
		row, want := maxPoolOracle(r, cb, win)
		if row != best {
			t.Fatalf("window %v: CAM walk picked %d, want the max index %d", win, row, best)
		}
		got := poolCAMStats(r.dev, size)
		if got.Writes != want.Writes || got.Cycles != want.Cycles || got.NORs != want.NORs || got.Reads != want.Reads {
			t.Fatalf("window of %d: poolCAMStats %+v, CAM walk %+v", size, got, want)
		}
		if math.Abs(got.EnergyJ-want.EnergyJ) > 1e-12*want.EnergyJ {
			t.Fatalf("window of %d: poolCAMStats energy %v J, CAM walk %v J", size, got.EnergyJ, want.EnergyJ)
		}
		if got.Writes != int64(size) || got.Cycles <= int64(size) || got.EnergyJ <= 0 {
			t.Fatalf("window of %d charged %+v: want one write per entry plus the search", size, got)
		}
	}
}
