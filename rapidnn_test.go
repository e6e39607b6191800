package rapidnn

import (
	"bytes"
	"encoding/gob"
	"strings"
	"sync"
	"testing"
)

// Shared pipeline fixture: trained + composed MNIST model.
var (
	pipeOnce sync.Once
	pipeDS   *Dataset
	pipeNet  *Network
	pipeCmp  *Composed
	pipeErr  error
)

func pipeline(t *testing.T) (*Dataset, *Network, *Composed) {
	t.Helper()
	pipeOnce.Do(func() {
		pipeDS, pipeErr = BenchmarkDataset("MNIST", false)
		if pipeErr != nil {
			return
		}
		pipeNet, pipeErr = BenchmarkModel(pipeDS, 0.08, 1)
		if pipeErr != nil {
			return
		}
		opt := DefaultTrainOptions()
		opt.Epochs = 4
		pipeNet.Train(pipeDS, opt)
		pipeCmp, pipeErr = pipeNet.Compose(pipeDS, ComposeOptions{MaxIterations: 2, RetrainEpochs: 1})
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipeDS, pipeNet, pipeCmp
}

func TestBenchmarkDatasetNames(t *testing.T) {
	for _, name := range []string{"MNIST", "ISOLET", "HAR", "CIFAR-10", "CIFAR-100", "ImageNet"} {
		d, err := BenchmarkDataset(name, false)
		if err != nil {
			t.Fatalf("BenchmarkDataset(%q): %v", name, err)
		}
		if d.Name() != name || d.Classes() < 2 || d.Features() < 1 {
			t.Fatalf("%s malformed: %d classes, %d features", name, d.Classes(), d.Features())
		}
		if d.TrainSize() <= 0 || d.TestSize() <= 0 {
			t.Fatalf("%s has empty splits", name)
		}
	}
	if _, err := BenchmarkDataset("SVHN", false); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestSyntheticDatasetShape(t *testing.T) {
	d := SyntheticDataset("toy", 12, 3, 60, 15, 0.1, 7)
	if d.Features() != 12 || d.Classes() != 3 || d.TrainSize() != 60 || d.TestSize() != 15 {
		t.Fatalf("unexpected shape: %d/%d/%d/%d", d.Features(), d.Classes(), d.TrainSize(), d.TestSize())
	}
}

func TestNewMLPTopology(t *testing.T) {
	n := NewMLP("m", 20, []int{16, 8}, 4, 1)
	want := "IN:20, FC:16, FC:8, FC:4"
	if got := n.Topology(); got != want {
		t.Fatalf("Topology = %q, want %q", got, want)
	}
	if n.MACs() != 20*16+16*8+8*4 {
		t.Fatalf("MACs = %d", n.MACs())
	}
}

func TestBenchmarkModelTopologies(t *testing.T) {
	for _, name := range []string{"MNIST", "CIFAR-10", "ImageNet"} {
		d, err := BenchmarkDataset(name, false)
		if err != nil {
			t.Fatal(err)
		}
		n, err := BenchmarkModel(d, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(n.Topology(), "IN:") {
			t.Fatalf("%s topology %q", name, n.Topology())
		}
	}
}

func TestEndToEndPipeline(t *testing.T) {
	ds, net, cmp := pipeline(t)
	if base := net.ErrorRate(ds); base > 0.5 {
		t.Fatalf("baseline error %v — training failed", base)
	}
	if cmp.DeltaE() > 0.06 {
		t.Fatalf("Δe = %v at default codebooks, want near zero", cmp.DeltaE())
	}
	if cmp.MemoryBytes() <= 0 {
		t.Fatal("memory footprint missing")
	}
	if cmp.RetrainEpochs() < 0 {
		t.Fatal("negative retrain epochs")
	}
}

func TestComposedPredict(t *testing.T) {
	ds, _, cmp := pipeline(t)
	inputs := make([][]float32, 4)
	flat := ds.ds.TestX.Data()
	in := ds.Features()
	for i := range inputs {
		inputs[i] = flat[i*in : (i+1)*in]
	}
	preds, err := cmp.Predict(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 4 {
		t.Fatalf("got %d predictions", len(preds))
	}
	for _, p := range preds {
		if p < 0 || p >= ds.Classes() {
			t.Fatalf("prediction %d out of range", p)
		}
	}
	if _, err := cmp.Predict([][]float32{{1, 2}}); err == nil {
		t.Fatal("wrong feature count must error")
	}
	if preds, err := cmp.Predict(nil); err != nil || preds != nil {
		t.Fatal("empty input should be a no-op")
	}
}

func TestComposedSimulate(t *testing.T) {
	_, _, cmp := pipeline(t)
	rep, err := cmp.Simulate(DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chips != 1 {
		t.Fatalf("default chips = %d", rep.Chips)
	}
	if rep.ThroughputIPS <= 0 || rep.LatencySeconds <= 0 || rep.EnergyPerInput <= 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
	if rep.WeightedAccumEnergyShare < 0.4 {
		t.Fatalf("weighted accumulation share %v, want dominant", rep.WeightedAccumEnergyShare)
	}
	eight, err := cmp.Simulate(DeployOptions{Chips: 8})
	if err != nil {
		t.Fatal(err)
	}
	if eight.Chips != 8 || eight.AreaMM2 <= rep.AreaMM2 {
		t.Fatal("8-chip deployment must report more area")
	}
}

func TestComposeOptionDefaultsApplied(t *testing.T) {
	cfg := ComposeOptions{}.toConfig()
	if cfg.WeightClusters != 64 || cfg.InputClusters != 64 || cfg.ActRows != 64 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	cfg2 := ComposeOptions{WeightClusters: 8, LinearQuantization: true}.toConfig()
	if cfg2.WeightClusters != 8 {
		t.Fatal("override ignored")
	}
}

func TestRNNPublicAPI(t *testing.T) {
	ds := SyntheticSequenceDataset("seq", 6, 4, 3, 120, 45, 3)
	if ds.Features() != 24 || ds.Classes() != 3 {
		t.Fatalf("sequence dataset shape: %d features, %d classes", ds.Features(), ds.Classes())
	}
	net := NewRNN("rnn", 4, 12, 6, 3, 3)
	if net.Topology() != "IN:24, RN:12x6, FC:3" {
		t.Fatalf("RNN topology %q", net.Topology())
	}
	opt := DefaultTrainOptions()
	opt.Epochs = 15
	opt.LR = 0.05
	if errRate := net.Train(ds, opt); errRate > 0.2 {
		t.Fatalf("RNN failed the burst task: %v", errRate)
	}
	cmp, err := net.Compose(ds, ComposeOptions{MaxIterations: 2, RetrainEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.DeltaE() > 0.15 {
		t.Fatalf("RNN reinterpretation dE = %v", cmp.DeltaE())
	}
	rep, err := cmp.Simulate(DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RNAsRequired <= 0 || rep.ThroughputIPS <= 0 {
		t.Fatalf("degenerate RNN report %+v", rep)
	}
}

func TestSaveLoadPublicAPI(t *testing.T) {
	ds, _, cmp := pipeline(t)
	var buf bytes.Buffer
	if err := cmp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("RAPIDNN2")) {
		t.Fatalf("Save wrote magic %q, want RAPIDNN2", buf.Bytes()[:8])
	}
	loaded, err := LoadComposed(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Error() != cmp.Error() {
		t.Fatalf("quality metadata lost: %v vs %v", loaded.Error(), cmp.Error())
	}
	in := ds.Features()
	inputs := [][]float32{ds.ds.TestX.Data()[:in]}
	pa, err := cmp.Predict(inputs)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := loaded.Predict(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if pa[0] != pb[0] {
		t.Fatal("loaded model predicts differently")
	}
	if _, err := loaded.Simulate(DeployOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadComposedRejectsGob(t *testing.T) {
	ds, _, _ := pipeline(t)
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(struct{ Magic string }{"RAPIDNN1"}); err != nil {
		t.Fatal(err)
	}
	c, err := LoadComposed(&raw, ds)
	if err == nil || c != nil || !strings.Contains(err.Error(), "not a RAPIDNN2 artifact (magic") {
		t.Fatalf("LoadComposed on a gob stream = %v, %v", c, err)
	}
}

func TestTunePublicAPI(t *testing.T) {
	ds, net, _ := pipeline(t)
	cmp, err := net.Compose(ds, ComposeOptions{MaxIterations: 1, TreeCodebooks: true})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := cmp.Tune(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.MemoryBytes() >= cmp.MemoryBytes() {
		t.Fatalf("tuning down must shrink tables: %d vs %d", tuned.MemoryBytes(), cmp.MemoryBytes())
	}
	if tuned.Error() < 0 || tuned.Error() > 1 {
		t.Fatalf("re-estimated error %v", tuned.Error())
	}
	// Without tree codebooks, Tune must fail.
	flat, err := net.Compose(ds, ComposeOptions{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Tune(8, 8); err == nil {
		t.Fatal("Tune on flat composition must error")
	}
}
