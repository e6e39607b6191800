package rna

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// neuronEdges is one neuron of the per-neuron lowering the compiled tables
// replaced: its codebook group and fixed-point bias, and per edge the
// weight-codebook index and the input position it reads.
type neuronEdges struct {
	group  int
	bias   int64
	wi, in []int
}

// edgeLists lowers a dense or conv layer neuron by neuron, the way the
// executor did before its tables were compiled: every neuron owns its edge
// list, in (c, ky, kx) order, and an out-of-bounds tap produces no edge.
func edgeLists(l nn.Layer, p *composer.LayerPlan) []neuronEdges {
	var ns []neuronEdges
	switch t := l.(type) {
	case *nn.Dense:
		for n := 0; n < t.OutSize(); n++ {
			e := neuronEdges{bias: fixedBias(t.B.Value.At(0, n))}
			for i := 0; i < t.InSize(); i++ {
				e.wi = append(e.wi, cluster.Assign(p.WeightCodebooks[0], t.W.Value.At(i, n)))
				e.in = append(e.in, i)
			}
			ns = append(ns, e)
		}
	case *nn.Conv2D:
		g := t.Geom
		for ch := 0; ch < t.OutC; ch++ {
			book := p.ChannelCodebook[ch]
			for oy := 0; oy < g.OutH(); oy++ {
				for ox := 0; ox < g.OutW(); ox++ {
					e := neuronEdges{group: book, bias: fixedBias(t.B.Value.At(0, ch))}
					for c := 0; c < g.InC; c++ {
						for ky := 0; ky < g.KH; ky++ {
							iy := oy*g.Stride + ky - g.Pad
							if iy < 0 || iy >= g.InH {
								continue
							}
							for kx := 0; kx < g.KW; kx++ {
								ix := ox*g.Stride + kx - g.Pad
								if ix < 0 || ix >= g.InW {
									continue
								}
								w := t.W.Value.At(ch, c*g.KH*g.KW+ky*g.KW+kx)
								e.wi = append(e.wi, cluster.Assign(p.WeightCodebooks[book], w))
								e.in = append(e.in, c*g.InH*g.InW+iy*g.InW+ix)
							}
						}
					}
					ns = append(ns, e)
				}
			}
		}
	default:
		panic(fmt.Sprintf("edgeLists: %T is not a dense or conv layer", l))
	}
	return ns
}

// walkEdges classifies x through h's blocks neuron by neuron over the
// per-neuron edge lists: each neuron gathers its own inputs and accumulates
// through accumulateOracle, then activates and encodes as the executor does.
// It handles networks of dense and conv layers only.
func walkEdges(h *HardwareNetwork, lists [][]neuronEdges, x []float32) (int, crossbar.Stats) {
	var stats crossbar.Stats
	enc := make([]int, len(x))
	for i, v := range x {
		enc[i] = cluster.Assign(h.layers[0].plan.InputCodebook, v)
	}
	best, bestV := 0, math.Inf(-1)
	for li, hl := range h.layers {
		nxt := make([]int, len(lists[li]))
		for n, e := range lists[li] {
			r := hl.rnas[e.group]
			ui := make([]int, len(e.in))
			for i, pos := range e.in {
				ui[i] = enc[pos]
			}
			pre, st := accumulateOracle(r, e.wi, ui, e.bias)
			stats = addStats(stats, st)
			if hl.isLogit {
				if pre > bestV {
					best, bestV = n, pre
				}
				continue
			}
			z := r.activate(pre)
			if hl.skip {
				z += float64(hl.plan.InputCodebook[enc[n]])
			}
			nxt[n] = r.encodeValue(z)
		}
		enc = nxt
	}
	return best, stats
}

// convShapes records which shapes the random conv nets have covered.
type convShapes struct {
	rectKernel, nonSquare, stride3, pad2, grouped, residual, convLogit bool
}

// randomConvNet draws a small conv net over random geometry: one or two
// convs with stride 1–3, pad 0–2, kernels 1×1 to 5×5 (often KH ≠ KW) on
// non-square inputs of 1–4 channels, sometimes a residual conv, and a conv
// or dense logit layer. Its synthetic plans remap conv channels onto fewer
// codebook groups of different sizes. It marks what it drew in cov.
func randomConvNet(rng *rand.Rand, cov *convShapes) (*nn.Network, []*composer.LayerPlan) {
	acts := []nn.Activation{nn.ReLU{}, nn.Tanh{}, nn.Sigmoid{}}
	geom := func(inC, inH, inW int) tensor.ConvGeom {
		for {
			g := tensor.ConvGeom{InC: inC, InH: inH, InW: inW,
				KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5), Stride: 1 + rng.Intn(3), Pad: rng.Intn(3)}
			if g.Validate() == nil && g.OutH()*g.OutW() <= 64 {
				cov.rectKernel = cov.rectKernel || g.KH != g.KW
				cov.stride3 = cov.stride3 || g.Stride == 3
				cov.pad2 = cov.pad2 || g.Pad == 2
				return g
			}
		}
	}
	inC, inH, inW := 1+rng.Intn(4), 3+rng.Intn(6), 3+rng.Intn(6)
	cov.nonSquare = cov.nonSquare || inH != inW
	net := nn.NewNetwork("conv")
	conv := nn.NewConv2D("cv1", geom(inC, inH, inW), 1+rng.Intn(4), acts[rng.Intn(len(acts))], rng)
	net.Add(conv)
	c, h, w := conv.OutGeom()
	if rng.Intn(3) == 0 {
		pad := rng.Intn(3)
		g := tensor.ConvGeom{InC: c, InH: h, InW: w, KH: 2*pad + 1, KW: 2*pad + 1, Stride: 1, Pad: pad}
		net.Add(nn.NewResidualConv2D("res", g, acts[rng.Intn(len(acts))], rng))
		cov.residual = true
	}
	if rng.Intn(2) == 0 {
		conv2 := nn.NewConv2D("cv2", geom(c, h, w), 1+rng.Intn(4), acts[rng.Intn(len(acts))], rng)
		net.Add(conv2)
		c, h, w = conv2.OutGeom()
	}
	if rng.Intn(2) == 0 {
		net.Add(nn.NewConv2D("out", geom(c, h, w), 1+rng.Intn(3), nn.Identity{}, rng))
		cov.convLogit = true
	} else {
		net.Add(nn.NewDense("out", c*h*w, 2+rng.Intn(4), nn.Identity{}, rng))
	}
	plans := composer.SyntheticPlans(net, 4+rng.Intn(13), 4+rng.Intn(13), 16)
	for i, p := range plans {
		conv, ok := net.Layers[i].(*nn.Conv2D)
		if !ok || conv.OutC < 2 {
			continue
		}
		groups := 1 + rng.Intn(conv.OutC-1)
		p.WeightCodebooks = p.WeightCodebooks[:groups]
		for g := range p.WeightCodebooks {
			p.WeightCodebooks[g] = randomCodebook(rng, 2+rng.Intn(15), 1)
		}
		for ch := range p.ChannelCodebook {
			p.ChannelCodebook[ch] = rng.Intn(groups)
		}
		cov.grouped = true
	}
	return net, plans
}

// The compiled conv lowering — border classes, shared weight-offset rows,
// one gather per input — must answer exactly what the per-neuron edge lists
// it replaced answer: predictions and every Stats field, EnergyJ compared
// with ==, over random conv geometries the golden artifacts do not cover.
// Under seeded stuck-at faults with parity and spare rows, the lowered
// network and a twin walked over the edge lists must also leave equal fault
// counters.
func TestCompiledConvMatchesEdgeLists(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var seen convShapes
	var corrected int64
	for trial := 0; trial < 100; trial++ {
		net, plans := randomConvNet(rng, &seen)
		hw, err := BuildHardwareNetwork(net, plans, dev())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		twin, err := BuildHardwareNetwork(net, plans, dev())
		if err != nil {
			t.Fatal(err)
		}
		lists := make([][]neuronEdges, len(net.Layers))
		for i, l := range net.Layers {
			lists[i] = edgeLists(l, plans[i])
		}
		faulty := trial%2 == 1
		if faulty {
			cfg := fault.Config{StuckRate: 0.02, Seed: int64(trial)}
			prot := fault.Protection{Parity: true, SpareRows: 2}
			for _, h := range []*HardwareNetwork{hw, twin} {
				if _, err := h.InjectFaults(cfg); err != nil {
					t.Fatal(err)
				}
				h.SetProtection(prot)
			}
		}
		const rows = 3
		x := make([]float32, rows*hw.InSize())
		for i := range x {
			x[i] = 2*rng.Float32() - 1
		}
		preds, stats, err := hw.InferBatchStats(tensor.FromSlice(x, rows, hw.InSize()))
		if err != nil {
			t.Fatal(err)
		}
		var want crossbar.Stats
		for i := 0; i < rows; i++ {
			pred, st := walkEdges(twin, lists, x[i*hw.InSize():(i+1)*hw.InSize()])
			if preds[i] != pred {
				t.Fatalf("trial %d (faulty %v) row %d: compiled tables predict %d, edge lists %d", trial, faulty, i, preds[i], pred)
			}
			want = addStats(want, st)
		}
		if stats != want {
			t.Fatalf("trial %d (faulty %v): compiled tables charge %+v, edge lists %+v", trial, faulty, stats, want)
		}
		if got, want := hw.FaultCounters().Snapshot(), twin.FaultCounters().Snapshot(); got != want {
			t.Fatalf("trial %d: compiled tables count %+v, edge lists %+v", trial, got, want)
		}
		corrected += hw.FaultCounters().Corrected.Load()
	}
	if corrected == 0 {
		t.Fatal("fault draws too mild: parity corrected no read")
	}
	if seen != (convShapes{true, true, true, true, true, true, true}) {
		t.Fatalf("random nets missed a shape: %+v", seen)
	}
}

// One Scratch may serve networks lowered for different devices, or for equal
// Params behind another pointer: the price memo follows the device, so each
// network's Stats equal a fresh scratch's. The avg-pool window price, set at
// lowering, is the network's own device's.
func TestPriceMemoFollowsDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	conv := nn.NewConv2D("cv", tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2, nn.ReLU{}, rng)
	pc, ph, pw := conv.OutGeom()
	pool := nn.NewPool2D("pl", nn.AvgPool, tensor.ConvGeom{InC: pc, InH: ph, InW: pw, KH: 2, KW: 2, Stride: 2})
	net := nn.NewNetwork("memo").Add(conv).Add(pool).
		Add(nn.NewDense("fc1", pool.OutSize(), 8, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 8, 3, nn.Identity{}, rng))
	plans := composer.SyntheticPlans(net, 8, 8, 16)
	doubled := dev()
	doubled.NOREnergy *= 2
	var nets []*HardwareNetwork
	for _, d := range []device.Params{dev(), doubled, dev()} {
		hw, err := BuildHardwareNetwork(net, plans, d)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := hw.layers[1].poolStats, crossbar.Price(&d, 4, sumWidth); got != want {
			t.Fatalf("NOR energy %v J: avg-pool window priced %+v, want %+v", d.NOREnergy, got, want)
		}
		nets = append(nets, hw)
	}
	if nets[0].layers[1].poolStats == nets[1].layers[1].poolStats {
		t.Fatal("doubling the NOR energy left the avg-pool window price unchanged")
	}
	x := make([]float32, net.InSize())
	for i := range x {
		x[i] = 2*rng.Float32() - 1
	}
	_, base := nets[0].inferOne(x, NewScratch())
	if _, st := nets[1].inferOne(x, NewScratch()); st.EnergyJ == base.EnergyJ {
		t.Fatalf("doubling the NOR energy left the energy at %v J", st.EnergyJ)
	}
	s := NewScratch()
	for round := 0; round < 2; round++ {
		for i, hw := range nets {
			pred, st := hw.inferOne(x, s)
			wantPred, wantSt := hw.inferOne(x, NewScratch())
			if pred != wantPred || st != wantSt {
				t.Fatalf("round %d network %d: shared scratch %d %+v, fresh %d %+v", round, i, pred, st, wantPred, wantSt)
			}
		}
	}
}
