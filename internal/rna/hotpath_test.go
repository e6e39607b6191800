package rna

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/composer"
	"repro/internal/counting"
	"repro/internal/crossbar"
	"repro/internal/fault"
	"repro/internal/ndcam"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// fire evaluates one neuron the way the executor's dense loop does —
// accumulate, activate, encode — in the caller's scratch, returning the
// encoded output index and the crossbar activity.
func fire(r *FuncRNA, wOff []int32, ui []int, bias int64, s *Scratch) (int, crossbar.Stats) {
	pre, st := r.AccumulateBiasScratch(wOff, ui, bias, s)
	return r.encodeValue(r.activate(pre, s), s), st
}

// offsets resolves weight-codebook indices into the row offsets the kernel
// reads, the way lowering does: each index times the block's nU.
func offsets(r *FuncRNA, wi []int) []int32 {
	off := make([]int32, len(wi))
	for i, w := range wi {
		off[i] = int32(w * r.nU)
	}
	return off
}

// accumulateOracle is the neuron accumulation spelled out stage by stage, the
// pipeline AccumulateBiasScratch fuses: ParallelCount counts the (w,u) pairs
// (§4.1.1); each counted pair, in (w,u) order, is read once and expanded by
// Decompose into its shifted 32-bit addends; the bias joins them and the
// crossbar adder sums the lot (§4.1.2) — natively modulo 2^sumWidth, priced
// by crossbar.Price for that many operands.
func accumulateOracle(r *FuncRNA, wi, ui []int, bias int64) (float64, crossbar.Stats) {
	pairs := make([]counting.Pair, len(wi))
	for i := range wi {
		pairs[i] = counting.Pair{W: wi[i], U: ui[i]}
	}
	counts := counting.ParallelCount(pairs, r.nW).Counts
	var addends []uint32
	for w := 0; w < r.nW; w++ {
		for u := 0; u < r.nU; u++ {
			c := counts[counting.Pair{W: w, U: u}]
			if c == 0 {
				continue
			}
			prod := r.readProduct(w*r.nU + u)
			for _, t := range counting.Decompose(c) {
				v := prod << t.Shift
				if t.Sub {
					v = -v
				}
				addends = append(addends, uint32(v))
			}
		}
	}
	addends = append(addends, uint32(bias))
	var sum uint32
	for _, v := range addends {
		sum += v
	}
	return quant.FromFixed(int64(int32(sum)), composer.FlatProductFracBits), crossbar.Price(r.dev, len(addends), sumWidth)
}

// randomNeuron draws a block with nW×nU random codebooks (ReLU comparator,
// so no activation CAM) and a neuron of the given edge count over it.
func randomNeuron(rng *rand.Rand, nW, nU, edges int) (*FuncRNA, []int, []int) {
	wcb := randomCodebook(rng, nW, 4)
	ucb := randomCodebook(rng, nU, 8)
	r := NewFuncRNAShared(devPtr(), wcb, ucb, nil, []float32{-1, 0, 1}, productTable(wcb, ucb))
	wi, ui := make([]int, edges), make([]int, edges)
	for i := range wi {
		wi[i], ui[i] = rng.Intn(nW), rng.Intn(nU)
	}
	return r, wi, ui
}

// The fused accumulation must equal the staged pipeline exactly — the
// pre-activation and every Stats field, EnergyJ compared with == — over
// random neurons of 0–2048 edges on codebooks from 1×1 to 64×64 plus wider
// weight codebooks, with signed biases, one Scratch reused throughout. Under
// seeded stuck-at faults with parity and spare rows, the fused path on one
// block and the oracle on a twin block drawn from the same seed must also
// leave equal fault counters: each distinct product is read exactly once.
func TestAccumulateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := NewScratch()
	dims := func(trial int) (int, int) {
		if trial%10 == 9 {
			return 65 + rng.Intn(40), 1 + rng.Intn(8) // weight codebook wider than 64
		}
		return 1 + rng.Intn(64), 1 + rng.Intn(64)
	}
	bias := func() int64 { return rng.Int63n(1<<34) - 1<<33 }
	for trial := 0; trial < 200; trial++ {
		nW, nU := dims(trial)
		r, wi, ui := randomNeuron(rng, nW, nU, rng.Intn(2049))
		b := bias()
		pre, st := r.AccumulateBiasScratch(offsets(r, wi), ui, b, s)
		wantPre, wantSt := accumulateOracle(r, wi, ui, b)
		if pre != wantPre || st != wantSt {
			t.Fatalf("trial %d (%d×%d, %d edges): fused %v %+v, oracle %v %+v",
				trial, nW, nU, len(wi), pre, st, wantPre, wantSt)
		}
	}

	prot := fault.Protection{Parity: true, SpareRows: 4}
	var corrected, uncorrectable int64
	for trial := 0; trial < 60; trial++ {
		nW, nU := dims(trial)
		seed := rng.Int63()
		r, wi, ui := randomNeuron(rand.New(rand.NewSource(seed)), nW, nU, rng.Intn(2049))
		twin, _, _ := randomNeuron(rand.New(rand.NewSource(seed)), nW, nU, 0)
		var cnt, twinCnt fault.Counters
		cfg := fault.Config{StuckRate: 0.05}
		r.SetProtection(prot, &cnt)
		twin.SetProtection(prot, &twinCnt)
		r.injectFaults(cfg, rand.New(rand.NewSource(seed)), &cnt)
		twin.injectFaults(cfg, rand.New(rand.NewSource(seed)), &twinCnt)
		b := bias()
		pre, st := r.AccumulateBiasScratch(offsets(r, wi), ui, b, s)
		wantPre, wantSt := accumulateOracle(twin, wi, ui, b)
		if pre != wantPre || st != wantSt {
			t.Fatalf("faulty trial %d (%d×%d, %d edges): fused %v %+v, oracle %v %+v",
				trial, nW, nU, len(wi), pre, st, wantPre, wantSt)
		}
		if got, want := cnt.Snapshot(), twinCnt.Snapshot(); got != want {
			t.Fatalf("faulty trial %d (%d×%d, %d edges): fused counters %+v, oracle %+v",
				trial, nW, nU, len(wi), got, want)
		}
		corrected += cnt.Corrected.Load()
		uncorrectable += cnt.Uncorrectable.Load()
	}
	if corrected == 0 || uncorrectable == 0 {
		t.Fatalf("fault draws too mild to test reads: %d corrected, %d uncorrectable", corrected, uncorrectable)
	}
}

// An out-of-range edge panics, and the panic leaves the Scratch clean: the
// slots counted before the bad edge are cleared, so the reused scratch's
// next answer equals a fresh scratch's.
func TestAccumulatePanicLeavesScratchClean(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	r, wi, ui := randomNeuron(rng, 16, 16, 96)
	s := NewScratch()
	for _, bad := range [][2]int{{16, 0}, {0, 16}, {-1, 3}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("edge %v on a 16×16 table did not panic", bad)
				}
			}()
			r.AccumulateBiasScratch(offsets(r, append(wi[:40:40], bad[0])), append(ui[:40:40], bad[1]), 0, s)
		}()
		pre, st := r.AccumulateBiasScratch(offsets(r, wi), ui, 5, s)
		wantPre, wantSt := r.AccumulateBiasScratch(offsets(r, wi), ui, 5, NewScratch())
		if pre != wantPre || st != wantSt {
			t.Fatalf("after the %v panic: reused scratch %v %+v, fresh %v %+v", bad, pre, st, wantPre, wantSt)
		}
	}
}

// maxPoolOracle runs one max-pooling window the way the hardware does it
// (§4.2.1): a fresh 16-bit encoder CAM is filled with the window's encoded
// values (cb is the codebook the indices point into) and a nearest-to-+∞
// search finds the largest. It returns the winning index and the CAM's write
// and search activity — the walk poolCAMStats prices in closed form.
func maxPoolOracle(r *FuncRNA, cb []float32, win []int) (int, crossbar.Stats) {
	cam := ndcam.New(*r.dev, 16, ndcam.Weighted)
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

// Every pooling window is priced at lowering — a max-pool window by
// poolCAMStats, an avg-pool window by crossbar.Price — so a warm scratch
// classifies an input through a conv + pool network of either kind without
// allocating.
func TestMaxPoolStatsZeroAllocs(t *testing.T) {
	for _, kind := range []nn.PoolKind{nn.MaxPool, nn.AvgPool} {
		rng := rand.New(rand.NewSource(8))
		g := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
		conv := nn.NewConv2D("cv", g, 2, nn.ReLU{}, rng)
		pc, ph, pw := conv.OutGeom()
		pool := nn.NewPool2D("pl", kind, tensor.ConvGeom{InC: pc, InH: ph, InW: pw, KH: 2, KW: 2, Stride: 2})
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
		hw.inferOne(x, s) // grow the scratch
		allocs := testing.AllocsPerRun(50, func() {
			hw.inferOne(x, s)
		})
		if allocs != 0 {
			t.Fatalf("conv + pool (kind %v) inference allocates %v per input, want 0", kind, allocs)
		}
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

		enc1, st1 := fire(r, offsets(r, wi), ui, bias, NewScratch())
		enc2, st2 := fire(r, offsets(r, wi), ui, bias, reused)
		if enc1 != enc2 {
			t.Fatalf("trial %d: results diverge: fresh %d, reused %d", trial, enc1, enc2)
		}
		if st1 != st2 {
			t.Fatalf("trial %d: stats diverge: fresh %+v, reused %+v", trial, st1, st2)
		}

		pre0, _ := r.AccumulateBiasScratch(offsets(r, wi), ui, bias, NewScratch())
		pre1, _ := r.AccumulateBiasScratch(offsets(r, wi), ui, bias, reused)
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
	r := NewFuncRNAShared(devPtr(), cb, cb, nil, cb, productTable(cb, cb))
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
		got := poolCAMStats(*r.dev, size)
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
