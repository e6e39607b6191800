package rna

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// composeSmall trains and composes a small network over a synthetic set.
func composeSmall(t testing.TB, net *nn.Network, ds *dataset.Dataset) *composer.Composed {
	t.Helper()
	opt := &nn.SGD{LR: 0.05, Momentum: 0.9}
	for epoch := 0; epoch < 15; epoch++ {
		ds.Batches(32, func(x *tensor.Tensor, labels []int) {
			net.TrainBatch(x, labels, opt)
		})
	}
	cfg := composer.DefaultConfig()
	cfg.WeightClusters, cfg.InputClusters = 16, 16
	cfg.MaxIterations = 1
	c, err := composer.Compose(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The hardware network must agree with the software reinterpreted model on
// the overwhelming majority of classifications — the NDCAM's XOR-weighted
// approximation and fixed-point rounding allow occasional flips.
func TestHardwareNetworkAgreesWithSoftware(t *testing.T) {
	ds := dataset.Generate(dataset.Config{
		Name: "hw", NumClasses: 4, InputShape: []int{20},
		Train: 400, Test: 60, Noise: 0.12, ClassSimilarity: 0.3, Seed: 41,
	})
	rng := rand.New(rand.NewSource(41))
	net := nn.NewNetwork("hw").
		Add(nn.NewDense("fc1", 20, 16, nn.ReLU{}, rng)).
		Add(nn.NewDense("fc2", 16, 12, nn.Sigmoid{}, rng)).
		Add(nn.NewDense("out", 12, 4, nn.Identity{}, rng))
	c := composeSmall(t, net, ds)
	re := composer.NewReinterpreted(c.Net, c.Plans)
	hw, err := BuildHardwareNetwork(re.Net(), c.Plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	in := ds.InSize()
	const n = 60
	batch := tensor.FromSlice(ds.TestX.Data()[:n*in], n, in)
	hwPreds, stats, err := hw.InferBatchStats(batch)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i, swPred := range re.Predict(batch) {
		if hwPreds[i] == swPred {
			agree++
		}
	}
	if agree < n*85/100 {
		t.Fatalf("hardware agreed with software on only %d/%d inputs", agree, n)
	}
	if stats.NORs == 0 || stats.EnergyJ == 0 {
		t.Fatal("hardware inference must accrue substrate work")
	}
}

// A conv + pool network must also run through the hardware path.
func TestHardwareNetworkConvPool(t *testing.T) {
	ds := dataset.Generate(dataset.Config{
		Name: "hwconv", NumClasses: 3, InputShape: []int{2, 8, 8},
		Train: 300, Test: 30, Noise: 0.15, ClassSimilarity: 0.3, Seed: 42,
	})
	rng := rand.New(rand.NewSource(42))
	g := tensor.ConvGeom{InC: 2, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2D("cv", g, 4, nn.ReLU{}, rng)
	pc, ph, pw := conv.OutGeom()
	pool := nn.NewPool2D("pl", nn.MaxPool, tensor.ConvGeom{InC: pc, InH: ph, InW: pw, KH: 2, KW: 2, Stride: 2})
	qc, qh, qw := pool.OutGeom()
	net := nn.NewNetwork("hwconv").
		Add(conv).
		Add(pool).
		Add(nn.NewDense("out", qc*qh*qw, 3, nn.Identity{}, rng))
	c := composeSmall(t, net, ds)
	re := composer.NewReinterpreted(c.Net, c.Plans)
	hw, err := BuildHardwareNetwork(re.Net(), c.Plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	hwErr, err := hw.ErrorRate(tensor.FromSlice(ds.TestX.Data()[:30*ds.InSize()], 30, ds.InSize()), ds.TestY[:30])
	if err != nil {
		t.Fatal(err)
	}
	swErr := re.ErrorRate(ds.TestX, ds.TestY)
	if hwErr > swErr+0.25 {
		t.Fatalf("hardware conv error %v far above software %v", hwErr, swErr)
	}
}

// A residual network's skip path must survive lowering to hardware.
func TestHardwareNetworkResidual(t *testing.T) {
	ds := dataset.Generate(dataset.Config{
		Name: "hwres", NumClasses: 3, InputShape: []int{12},
		Train: 300, Test: 30, Noise: 0.12, ClassSimilarity: 0.3, Seed: 43,
	})
	rng := rand.New(rand.NewSource(43))
	net := nn.NewNetwork("hwres").
		Add(nn.NewDense("in", 12, 10, nn.ReLU{}, rng)).
		Add(nn.NewResidualDense("res", 10, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 10, 3, nn.Identity{}, rng))
	c := composeSmall(t, net, ds)
	re := composer.NewReinterpreted(c.Net, c.Plans)
	hw, err := BuildHardwareNetwork(re.Net(), c.Plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	hwErr, err := hw.ErrorRate(tensor.FromSlice(ds.TestX.Data()[:30*ds.InSize()], 30, ds.InSize()), ds.TestY[:30])
	if err != nil {
		t.Fatal(err)
	}
	if swErr := re.ErrorRate(ds.TestX, ds.TestY); hwErr > swErr+0.25 {
		t.Fatalf("hardware residual error %v far above software %v", hwErr, swErr)
	}
}

// Fault injection: accuracy must degrade monotonically (in aggregate) as
// stuck-at faults accumulate in the product crossbars, and heavy fault rates
// must visibly hurt.
func TestHardwareNetworkFaultInjection(t *testing.T) {
	ds := dataset.Generate(dataset.Config{
		Name: "hwfault", NumClasses: 4, InputShape: []int{20},
		Train: 400, Test: 40, Noise: 0.12, ClassSimilarity: 0.3, Seed: 44,
	})
	rng := rand.New(rand.NewSource(44))
	net := nn.NewNetwork("hwfault").
		Add(nn.NewDense("fc1", 20, 16, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 16, 4, nn.Identity{}, rng))
	c := composeSmall(t, net, ds)
	re := composer.NewReinterpreted(c.Net, c.Plans)
	testX := tensor.FromSlice(ds.TestX.Data()[:40*ds.InSize()], 40, ds.InSize())
	labels := ds.TestY[:40]

	// One lowered network serves the whole sweep: injection is a revertible
	// overlay, so each rate starts from the same pristine configuration.
	hw, err := BuildHardwareNetwork(re.Net(), c.Plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(rate float64) float64 {
		hw.ClearFaults()
		if rate > 0 {
			rep, err := hw.InjectFaults(fault.Config{StuckRate: rate, Seed: faultTestSeed})
			if err != nil {
				t.Fatal(err)
			}
			if rep.StuckBits == 0 {
				t.Fatalf("no faults injected at rate %v", rate)
			}
		}
		e, err := hw.ErrorRate(testX, labels)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	clean := errAt(0)
	light := errAt(0.001)
	heavy := errAt(0.2)
	if heavy <= clean {
		t.Fatalf("20%% stuck bits did not hurt: clean %v, heavy %v", clean, heavy)
	}
	if light > clean+0.3 {
		t.Fatalf("0.1%% stuck bits destroyed the model: clean %v, light %v", clean, light)
	}
}

func TestBuildHardwareNetworkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	net := nn.NewNetwork("v").Add(nn.NewDense("out", 4, 2, nn.Identity{}, rng))
	if _, err := BuildHardwareNetwork(net, nil, dev()); err == nil {
		t.Fatal("mismatched plans must error")
	}
	// A pooling-only network has no logit layer to finish on.
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2}
	poolOnly := nn.NewNetwork("pl").Add(nn.NewPool2D("pl", nn.MaxPool, g))
	plans := composer.SyntheticPlans(poolOnly, 4, 4, 16)
	if _, err := BuildHardwareNetwork(poolOnly, plans, dev()); err == nil {
		t.Fatal("network without a compute tail must be rejected")
	}
	// A recurrent final layer emits encoded hidden states, never the raw
	// per-class sums the argmax comparator reads: refused at build time
	// rather than built into a network on which every inference fails.
	rnnLast := nn.NewNetwork("rnnlast").
		Add(nn.NewDense("fc", 8, 8, nn.Tanh{}, rng)).
		Add(nn.NewRecurrent("rnn", 4, 3, 2, nn.Tanh{}, rng))
	_, err := BuildHardwareNetwork(rnnLast, composer.SyntheticPlans(rnnLast, 8, 8, 16), dev())
	if err == nil || !strings.Contains(err.Error(), "final layer rnn is recurrent") {
		t.Fatalf("recurrent logit layer: err = %v, want a build-time rejection naming it", err)
	}
}

// Average pooling runs on the hardware path via in-memory addition with the
// division folded offline (§4.2.1).
func TestHardwareNetworkAvgPool(t *testing.T) {
	ds := dataset.Generate(dataset.Config{
		Name: "hwavg", NumClasses: 3, InputShape: []int{2, 6, 6},
		Train: 300, Test: 24, Noise: 0.15, ClassSimilarity: 0.3, Seed: 46,
	})
	rng := rand.New(rand.NewSource(46))
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2D("cv", g, 4, nn.ReLU{}, rng)
	pc, ph, pw := conv.OutGeom()
	pool := nn.NewPool2D("pl", nn.AvgPool, tensor.ConvGeom{InC: pc, InH: ph, InW: pw, KH: 2, KW: 2, Stride: 2})
	qc, qh, qw := pool.OutGeom()
	net := nn.NewNetwork("hwavg").
		Add(conv).
		Add(pool).
		Add(nn.NewDense("out", qc*qh*qw, 3, nn.Identity{}, rng))
	c := composeSmall(t, net, ds)
	re := composer.NewReinterpreted(c.Net, c.Plans)
	hw, err := BuildHardwareNetwork(re.Net(), c.Plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	hwErr, err := hw.ErrorRate(tensor.FromSlice(ds.TestX.Data()[:24*ds.InSize()], 24, ds.InSize()), ds.TestY[:24])
	if err != nil {
		t.Fatal(err)
	}
	if swErr := re.ErrorRate(ds.TestX, ds.TestY); hwErr > swErr+0.3 {
		t.Fatalf("hardware avg-pool error %v far above software %v", hwErr, swErr)
	}
}

// perRow answers each row of x with its own one-row InferBatchStats call and
// returns the predictions and the in-order sum of the per-row Stats — the
// serial reference every batched run must reproduce bit for bit.
func perRow(t *testing.T, hw *HardwareNetwork, x *tensor.Tensor) ([]int, crossbar.Stats) {
	t.Helper()
	n := x.Dim(0)
	in := x.Len() / n
	preds := make([]int, n)
	var total crossbar.Stats
	for i := 0; i < n; i++ {
		p, st, err := hw.InferBatchStats(tensor.FromSlice(x.Data()[i*in:(i+1)*in], 1, in))
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p[0]
		total = addStats(total, st)
	}
	return preds, total
}

// InferBatchStats fans inference out across goroutines; the predictions AND
// the aggregated substrate stats must be bit-identical to the serial
// per-input path (run with -race to exercise the re-entrancy of the FuncRNA
// blocks).
func TestInferBatchMatchesSerialInfer(t *testing.T) {
	ds := dataset.Generate(dataset.Config{
		Name: "hwbatch", NumClasses: 4, InputShape: []int{20},
		Train: 400, Test: 48, Noise: 0.12, ClassSimilarity: 0.3, Seed: 48,
	})
	rng := rand.New(rand.NewSource(48))
	net := nn.NewNetwork("hwbatch").
		Add(nn.NewDense("fc1", 20, 16, nn.ReLU{}, rng)).
		Add(nn.NewDense("fc2", 16, 12, nn.Sigmoid{}, rng)).
		Add(nn.NewDense("out", 12, 4, nn.Identity{}, rng))
	c := composeSmall(t, net, ds)
	re := composer.NewReinterpreted(c.Net, c.Plans)

	build := func() *HardwareNetwork {
		hw, err := BuildHardwareNetwork(re.Net(), c.Plans, dev())
		if err != nil {
			t.Fatal(err)
		}
		return hw
	}
	const n = 48
	in := ds.InSize()
	batch := tensor.FromSlice(ds.TestX.Data()[:n*in], n, in)
	serialPreds, serialStats := perRow(t, build(), batch)

	for _, workers := range []int{1, 4, 16} {
		hw := build()
		hw.Workers = workers
		preds, stats, err := hw.InferBatchStats(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range preds {
			if preds[i] != serialPreds[i] {
				t.Fatalf("workers=%d: prediction %d is %d, serial says %d", workers, i, preds[i], serialPreds[i])
			}
		}
		if stats != serialStats {
			t.Fatalf("workers=%d: batched stats %+v differ from serial %+v", workers, stats, serialStats)
		}
	}
}

// BenchmarkHardwareInferBatch measures the hardware-in-the-loop batch at
// 1, 2 and GOMAXPROCS workers (each count once), on a dense net (the
// workers=N rungs), on a conv + max-pool + dense net (conv/workers=N), whose
// conv neurons own most of a hardware run, on the untrained reduced CIFAR
// conv net of the end-to-end bulk-conv workload (cifar/workers=N), so a
// change to the conv kernel can be sized in-process, and on the untrained
// reduced MNIST net of bulk-faults under its fault scenario
// (faults/workers=N), so a change to the faulty product read can be too. The
// wall time should fall as workers rise toward GOMAXPROCS while
// TestInferBatchMatchesSerialInfer pins the results.
func BenchmarkHardwareInferBatch(b *testing.B) {
	ds := dataset.Generate(dataset.Config{
		Name: "hwbench", NumClasses: 4, InputShape: []int{20},
		Train: 400, Test: 48, Noise: 0.12, ClassSimilarity: 0.3, Seed: 50,
	})
	rng := rand.New(rand.NewSource(50))
	net := nn.NewNetwork("hwbench").
		Add(nn.NewDense("fc1", 20, 24, nn.ReLU{}, rng)).
		Add(nn.NewDense("fc2", 24, 16, nn.Sigmoid{}, rng)).
		Add(nn.NewDense("out", 16, 4, nn.Identity{}, rng))
	c := composeSmall(b, net, ds)
	re := composer.NewReinterpreted(c.Net, c.Plans)
	hw, err := BuildHardwareNetwork(re.Net(), c.Plans, dev())
	if err != nil {
		b.Fatal(err)
	}
	const n = 48
	batch := tensor.FromSlice(ds.TestX.Data()[:n*ds.InSize()], n, ds.InSize())

	// The conv rung: 3×16×16 inputs through a 3×3 conv of 8 channels
	// (27 edges per neuron), 2×2 max pooling and a dense logit layer, on
	// synthetic 16×16 codebooks.
	g := tensor.ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2D("cv", g, 8, nn.ReLU{}, rng)
	pc, ph, pw := conv.OutGeom()
	pool := nn.NewPool2D("pl", nn.MaxPool, tensor.ConvGeom{InC: pc, InH: ph, InW: pw, KH: 2, KW: 2, Stride: 2})
	qc, qh, qw := pool.OutGeom()
	cnet := nn.NewNetwork("convbench").Add(conv).Add(pool).Add(nn.NewDense("out", qc*qh*qw, 10, nn.Identity{}, rng))
	chw, err := BuildHardwareNetwork(cnet, composer.SyntheticPlans(cnet, 16, 16, 16), dev())
	if err != nil {
		b.Fatal(err)
	}
	const cn = 16
	cx := make([]float32, cn*chw.InSize())
	for i := range cx {
		cx[i] = 2*rng.Float32() - 1
	}
	cbatch := tensor.FromSlice(cx, cn, chw.InSize())

	// The cifar rung: bulk-conv's layer shapes (conv, pool, conv, conv,
	// dense, dense on 3×32×32 inputs) on synthetic 16×16 codebooks, 16 rows.
	cifar := model.ConvNet("CIFAR-10", 3, 32, 32, 10, 0.125, 50)
	fhw, err := BuildHardwareNetwork(cifar, composer.SyntheticPlans(cifar, 16, 16, 16), dev())
	if err != nil {
		b.Fatal(err)
	}
	fx := make([]float32, cn*fhw.InSize())
	for i := range fx {
		fx[i] = 2*rng.Float32() - 1
	}
	fbatch := tensor.FromSlice(fx, cn, fhw.InSize())

	// The faults rung: bulk-faults' layer shapes (the fully-connected MNIST
	// net at an eighth of its width) on synthetic 16×16 codebooks, 16 rows,
	// under its seeded stuck-at cells and dead CAM rows with parity, 4 spare
	// rows and TMR.
	mnist := model.FCNet("MNIST", 784, 10, 0.125, 50)
	qhw, err := BuildHardwareNetwork(mnist, composer.SyntheticPlans(mnist, 16, 16, 16), dev())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := qhw.InjectFaults(fault.Config{StuckRate: 5e-3, CAMRowRate: 0.25, CAMShortFrac: 0.001, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	qhw.SetProtection(fault.Protection{Parity: true, SpareRows: 4, TMR: true})
	qx := make([]float32, cn*qhw.InSize())
	for i := range qx {
		qx[i] = 2*rng.Float32() - 1
	}
	qbatch := tensor.FromSlice(qx, cn, qhw.InSize())

	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	rung := func(name string, hw *HardwareNetwork, batch *tensor.Tensor, rows int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := hw.InferBatchStats(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
	for _, workers := range counts {
		hw.Workers = workers
		rung(fmt.Sprintf("workers=%d", workers), hw, batch, n)
	}
	for _, workers := range counts {
		chw.Workers = workers
		rung(fmt.Sprintf("conv/workers=%d", workers), chw, cbatch, cn)
	}
	for _, workers := range counts {
		fhw.Workers = workers
		rung(fmt.Sprintf("cifar/workers=%d", workers), fhw, fbatch, cn)
	}
	for _, workers := range counts {
		qhw.Workers = workers
		rung(fmt.Sprintf("faults/workers=%d", workers), qhw, qbatch, cn)
	}
}

// A recurrent layer whose frame geometry does not match the feed from the
// previous layer must be rejected at build time, and inference must reject a
// malformed input vector instead of panicking on the frame slice.
func TestRecurrentInputLengthValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	// The dense layer emits 7 features, but the recurrent layer slices
	// 4-feature frames over 2 steps → wants 8 ≠ 7. Network.Add would refuse
	// this chain, so assemble the layer stack directly, the way a corrupted
	// or hand-deserialized model would arrive.
	net := &nn.Network{Name: "badrnn", Layers: []nn.Layer{
		nn.NewDense("fc", 20, 7, nn.ReLU{}, rng),
		nn.NewRecurrent("rnn", 4, 8, 2, nn.Tanh{}, rng),
		nn.NewDense("out", 8, 3, nn.Identity{}, rng),
	}}
	plans := composer.SyntheticPlans(net, 8, 8, 16)
	if _, err := BuildHardwareNetwork(net, plans, dev()); err == nil {
		t.Fatal("recurrent frame geometry mismatch must be rejected at build time")
	}

	good := nn.NewNetwork("rnn").
		Add(nn.NewRecurrent("rnn", 4, 8, 5, nn.Tanh{}, rng)).
		Add(nn.NewDense("out", 8, 3, nn.Identity{}, rng))
	hw, err := BuildHardwareNetwork(good, composer.SyntheticPlans(good, 8, 8, 16), dev())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := hw.InferBatchStats(tensor.FromSlice(make([]float32, 7), 1, 7)); err == nil {
		t.Fatal("short input vector must error, not panic")
	}
}

// A recurrent classifier must lower to hardware and track the software model
// (the software keeps the hidden state unquantized between steps, so some
// divergence is expected; accuracy must stay close).
func TestHardwareNetworkRecurrent(t *testing.T) {
	const steps, in = 5, 4
	ds := dataset.GenerateSequences(dataset.SequenceConfig{
		Name: "hwrnn", Steps: steps, Features: in, NumClasses: 3,
		Train: 300, Test: 24, Seed: 47,
	})
	rng := rand.New(rand.NewSource(47))
	net := nn.NewNetwork("hwrnn").
		Add(nn.NewRecurrent("rnn", in, 10, steps, nn.Tanh{}, rng)).
		Add(nn.NewDense("out", 10, 3, nn.Identity{}, rng))
	c := composeSmall(t, net, ds)
	re := composer.NewReinterpreted(c.Net, c.Plans)
	hw, err := BuildHardwareNetwork(re.Net(), c.Plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice(ds.TestX.Data()[:24*ds.InSize()], 24, ds.InSize())
	hwErr, err := hw.ErrorRate(x, ds.TestY[:24])
	if err != nil {
		t.Fatal(err)
	}
	swErr := re.ErrorRate(ds.TestX, ds.TestY)
	if hwErr > swErr+0.3 {
		t.Fatalf("hardware RNN error %v far above software %v", hwErr, swErr)
	}
	if _, st, err := hw.InferBatchStats(x); err != nil || st.NORs == 0 {
		t.Fatalf("RNN inference must accrue NOR work: %+v, %v", st, err)
	}
}

// InferBatchStats must handle the degenerate batch shapes a serving layer
// throws at it — an empty batch, a batch of one, and more workers than rows —
// all without deadlock and bit-identical to the serial per-row path. A batch
// whose width is not the network's must error. Synthetic plans on an
// untrained net keep this fast: bit-identity does not need a trained model.
func TestInferBatchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	net := nn.NewNetwork("edge").
		Add(nn.NewDense("fc1", 10, 8, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 8, 3, nn.Identity{}, rng))
	plans := composer.SyntheticPlans(net, 8, 8, 16)
	re := composer.NewReinterpreted(net, plans)
	build := func() *HardwareNetwork {
		hw, err := BuildHardwareNetwork(re.Net(), plans, dev())
		if err != nil {
			t.Fatal(err)
		}
		return hw
	}
	if got := build(); got.InSize() != 10 {
		t.Fatalf("InSize reports %d features, want 10", got.InSize())
	}

	const rows = 3
	data := make([]float32, rows*10)
	for i := range data {
		data[i] = 2*rng.Float32() - 1
	}
	want, wantStats := perRow(t, build(), tensor.FromSlice(data, rows, 10))

	// Empty batch: the tensor package cannot represent zero rows, so the
	// serving layer passes nil; it must return immediately with no
	// predictions and no work.
	empty := build()
	empty.Workers = 4
	preds, st, err := empty.InferBatchStats(nil)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if len(preds) != 0 {
		t.Fatalf("empty batch returned %d predictions", len(preds))
	}
	if st != (crossbar.Stats{}) {
		t.Fatalf("empty batch accrued substrate work: %+v", st)
	}

	// Batch of one, and Workers from serial up to far beyond the batch size.
	for _, workers := range []int{0, 1, 8, 64} {
		hw := build()
		hw.Workers = workers
		preds, _, err := hw.InferBatchStats(tensor.FromSlice(append([]float32(nil), data[:10]...), 1, 10))
		if err != nil {
			t.Fatalf("workers=%d batch of one: %v", workers, err)
		}
		if len(preds) != 1 || preds[0] != want[0] {
			t.Fatalf("workers=%d batch of one predicted %v, serial says %d", workers, preds, want[0])
		}

		preds, st, err := hw.InferBatchStats(tensor.FromSlice(append([]float32(nil), data...), rows, 10))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range preds {
			if preds[i] != want[i] {
				t.Fatalf("workers=%d row %d predicted %d, serial says %d", workers, i, preds[i], want[i])
			}
		}
		if st != wantStats {
			t.Fatalf("workers=%d: stats %+v differ from serial %+v", workers, st, wantStats)
		}
	}

	// A batch of the wrong width errors instead of slicing rows apart.
	if _, _, err := build().InferBatchStats(tensor.FromSlice(data[:2*12], 2, 12)); err == nil {
		t.Fatal("a 12-feature batch on a 10-feature network must error")
	}
}

// InferBatchStats holds no per-call state on the network, so concurrent
// batches can run on one network; the returned activity still folds in row
// order, bit-identical to the serial accumulation.
func TestInferBatchStatsIsReentrant(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	net := nn.NewNetwork("reent").
		Add(nn.NewDense("fc1", 10, 8, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 8, 3, nn.Identity{}, rng))
	plans := composer.SyntheticPlans(net, 8, 8, 16)
	re := composer.NewReinterpreted(net, plans)
	hw, err := BuildHardwareNetwork(re.Net(), plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	const rows = 4
	data := make([]float32, rows*10)
	for i := range data {
		data[i] = 2*rng.Float32() - 1
	}
	batch := tensor.FromSlice(data, rows, 10)

	serial, err := BuildHardwareNetwork(re.Net(), plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := perRow(t, serial, batch)

	// Two concurrent InferBatchStats runs over the same network.
	type res struct {
		preds []int
		stats crossbar.Stats
		err   error
	}
	out := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			p, s, err := hw.InferBatchStats(batch)
			out <- res{p, s, err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-out
		if r.err != nil {
			t.Fatal(r.err)
		}
		for j := range want {
			if r.preds[j] != want[j] {
				t.Fatalf("concurrent run row %d predicted %d, serial says %d", j, r.preds[j], want[j])
			}
		}
		if r.stats != wantStats {
			t.Fatalf("concurrent run stats %+v differ from serial %+v", r.stats, wantStats)
		}
	}
}

// ErrorRate needs one label per row: a mismatched label slice is an error,
// not an index panic.
func TestErrorRateLabelCount(t *testing.T) {
	hw := tracedHW(t)
	x := tensor.FromSlice(make([]float32, 3*10), 3, 10)
	for _, n := range []int{2, 4} {
		if _, err := hw.ErrorRate(x, make([]int, n)); err == nil {
			t.Fatalf("%d labels for 3 rows must error", n)
		}
	}
	if _, err := hw.ErrorRate(x, make([]int, 3)); err != nil {
		t.Fatal(err)
	}
}
