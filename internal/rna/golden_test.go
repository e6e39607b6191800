package rna_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/rna"
	"repro/internal/tensor"
)

// update rewrites testdata/golden.txt from the committed artifacts instead of
// comparing against it. Artifacts missing from testdata/ are composed from
// their recipes first; delete one to recompose it. Every rewrite moves the
// cross-commit reference, so record which digests moved, and why, in
// CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/golden.txt (composing missing artifacts) instead of comparing")

// goldenRows is the number of seeded input rows each artifact is scored on.
const goldenRows = 24

// goldenFaults is the seeded fault map of the faulty passes: stuck-at product
// cells and dead CAM rows. The row rate is low enough that some CAM copies
// draw no failed row at all, so the counters tell "row faults were drawn"
// apart from "this copy has a failed row". Transient flips stay out: which
// product read receives which flip depends on worker scheduling, so they are
// not bit-reproducible.
var goldenFaults = fault.Config{StuckRate: 0.01, CAMRowRate: 0.1, CAMShortFrac: 0.001, Seed: 1}

// goldenPasses score the one drawn fault map under several protections:
// parity, spare rows and 2-of-3 voting over CAM copies together, then none,
// then parity and spare rows each alone, so a mechanism's effect is pinned
// apart from the others'.
var goldenPasses = []struct {
	name string
	prot fault.Protection
}{
	{"faults", fault.Protection{Parity: true, SpareRows: 4, TMR: true}},
	{"faults/none", fault.Protection{}},
	{"faults/parity", fault.Protection{Parity: true}},
	{"faults/spare", fault.Protection{SpareRows: 4}},
}

// goldenArtifact is one small RAPIDNN2 model under testdata/ and the recipe
// that composed it: the shapes of the hwnet_test.go fixtures, one per layer
// kind the hardware executor lowers.
type goldenArtifact struct {
	name string
	data func() *dataset.Dataset
	net  func(rng *rand.Rand) *nn.Network
	seed int64
}

func denseData(name string, seed int64) func() *dataset.Dataset {
	return func() *dataset.Dataset {
		return dataset.Generate(dataset.Config{
			Name: name, NumClasses: 4, InputShape: []int{20},
			Train: 400, Test: 40, Noise: 0.12, ClassSimilarity: 0.3, Seed: seed,
		})
	}
}

// convNet is conv(2→4, 3×3, pad 1) → 2×2 pool → dense logits on 2×side×side
// inputs.
func convNet(name string, side int, kind nn.PoolKind) func(*rand.Rand) *nn.Network {
	return func(rng *rand.Rand) *nn.Network {
		g := tensor.ConvGeom{InC: 2, InH: side, InW: side, KH: 3, KW: 3, Stride: 1, Pad: 1}
		conv := nn.NewConv2D("cv", g, 4, nn.ReLU{}, rng)
		pc, ph, pw := conv.OutGeom()
		pool := nn.NewPool2D("pl", kind, tensor.ConvGeom{InC: pc, InH: ph, InW: pw, KH: 2, KW: 2, Stride: 2})
		qc, qh, qw := pool.OutGeom()
		return nn.NewNetwork(name).
			Add(conv).
			Add(pool).
			Add(nn.NewDense("out", qc*qh*qw, 3, nn.Identity{}, rng))
	}
}

func convData(name string, side int, seed int64) func() *dataset.Dataset {
	return func() *dataset.Dataset {
		return dataset.Generate(dataset.Config{
			Name: name, NumClasses: 3, InputShape: []int{2, side, side},
			Train: 300, Test: 30, Noise: 0.15, ClassSimilarity: 0.3, Seed: seed,
		})
	}
}

var goldenArtifacts = []goldenArtifact{
	{
		// A sigmoid layer: the activation runs as an NDCAM table search.
		name: "dense-table", seed: 41, data: denseData("hw", 41),
		net: func(rng *rand.Rand) *nn.Network {
			return nn.NewNetwork("hw").
				Add(nn.NewDense("fc1", 20, 16, nn.ReLU{}, rng)).
				Add(nn.NewDense("fc2", 16, 12, nn.Sigmoid{}, rng)).
				Add(nn.NewDense("out", 12, 4, nn.Identity{}, rng))
		},
	},
	{
		// ReLU only: the activation is the hardware comparator, no table.
		name: "dense-relu", seed: 44, data: denseData("hwfault", 44),
		net: func(rng *rand.Rand) *nn.Network {
			return nn.NewNetwork("hwfault").
				Add(nn.NewDense("fc1", 20, 16, nn.ReLU{}, rng)).
				Add(nn.NewDense("out", 16, 4, nn.Identity{}, rng))
		},
	},
	{name: "conv-maxpool", seed: 42, data: convData("hwconv", 8, 42), net: convNet("hwconv", 8, nn.MaxPool)},
	{name: "conv-avgpool", seed: 46, data: convData("hwavg", 6, 46), net: convNet("hwavg", 6, nn.AvgPool)},
	{
		name: "residual", seed: 43,
		data: func() *dataset.Dataset {
			return dataset.Generate(dataset.Config{
				Name: "hwres", NumClasses: 3, InputShape: []int{12},
				Train: 300, Test: 30, Noise: 0.12, ClassSimilarity: 0.3, Seed: 43,
			})
		},
		net: func(rng *rand.Rand) *nn.Network {
			return nn.NewNetwork("hwres").
				Add(nn.NewDense("in", 12, 10, nn.ReLU{}, rng)).
				Add(nn.NewResidualDense("res", 10, nn.ReLU{}, rng)).
				Add(nn.NewDense("out", 10, 3, nn.Identity{}, rng))
		},
	},
	{
		name: "recurrent", seed: 47,
		data: func() *dataset.Dataset {
			return dataset.GenerateSequences(dataset.SequenceConfig{
				Name: "hwrnn", Steps: 5, Features: 4, NumClasses: 3,
				Train: 300, Test: 24, Seed: 47,
			})
		},
		net: func(rng *rand.Rand) *nn.Network {
			return nn.NewNetwork("hwrnn").
				Add(nn.NewRecurrent("rnn", 4, 10, 5, nn.Tanh{}, rng)).
				Add(nn.NewDense("out", 10, 3, nn.Identity{}, rng))
		},
	},
}

func (a goldenArtifact) path() string { return filepath.Join("testdata", a.name+".rapidnn") }

// compose trains the recipe's network briefly, composes it at 16/16
// codebooks and returns its RAPIDNN2 bytes.
func (a goldenArtifact) compose(t *testing.T) []byte {
	t.Helper()
	ds := a.data()
	net := a.net(rand.New(rand.NewSource(a.seed)))
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
	var buf bytes.Buffer
	if err := c.SaveFlat(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// digester hashes executor outputs as little-endian 64-bit words.
type digester struct{ h []byte }

func (d *digester) put(vs ...int64) {
	for _, v := range vs {
		d.h = binary.LittleEndian.AppendUint64(d.h, uint64(v))
	}
}

func (d *digester) stats(st crossbar.Stats) {
	d.put(st.Cycles, st.NORs, st.Reads, st.Writes, int64(math.Float64bits(st.EnergyJ)))
}

func (d *digester) sum() string {
	s := sha256.Sum256(d.h)
	return hex.EncodeToString(s[:16])
}

func addStats(a, b crossbar.Stats) crossbar.Stats {
	a.Cycles += b.Cycles
	a.NORs += b.NORs
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.EnergyJ += b.EnergyJ
	return a
}

// scoreArtifact answers every row with its own one-row InferBatchStats call
// and hashes the predictions, each row's Stats and the fault report and
// counters. It then checks that one whole-split batch at Workers 1 and 2
// returns the same predictions and the in-order sum of the per-row Stats.
func scoreArtifact(t *testing.T, hw *rna.HardwareNetwork, rows *tensor.Tensor, rep fault.Report) string {
	t.Helper()
	n, in := rows.Dim(0), rows.Dim(1)
	preds := make([]int, n)
	var sum crossbar.Stats
	var d digester
	for i := 0; i < n; i++ {
		row := tensor.FromSlice(rows.Data()[i*in:(i+1)*in], 1, in)
		p, st, err := hw.InferBatchStats(row)
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p[0]
		sum = addStats(sum, st)
		d.put(int64(p[0]))
		d.stats(st)
	}
	c := hw.FaultCounters().Snapshot()
	d.put(int64(rep.StuckCells), int64(rep.StuckBits), int64(rep.CAMRowsFailed),
		int64(math.Float64bits(rep.TransientRate)),
		c.Corrected, c.Detected, c.Uncorrectable, c.Remapped, c.SpareShortfall,
		c.TMRVotes, c.TMRDisagreements, c.TransientFlips)

	for _, workers := range []int{1, 2} {
		hw.Workers = workers
		got, total, err := hw.InferBatchStats(rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range preds {
			if got[i] != preds[i] {
				t.Fatalf("workers=%d: row %d predicted %d in the batch, %d alone", workers, i, got[i], preds[i])
			}
		}
		if total != sum {
			t.Fatalf("workers=%d: batch Stats %+v, in-order sum of per-row Stats %+v", workers, total, sum)
		}
	}
	return d.sum()
}

// TestGoldenArtifactsRecomposeByteIdentical pins the composer against the
// committed artifacts: training and composing each recipe again must write
// the committed file byte for byte. It is the cross-commit check on every
// statistics pass the recipes reach (dense, conv with max and avg pooling,
// residual, recurrent), including the order in which each layer's operands,
// pre-activations and fed-back hidden states are sampled.
func TestGoldenArtifactsRecomposeByteIdentical(t *testing.T) {
	for _, a := range goldenArtifacts {
		want, err := os.ReadFile(a.path())
		if err != nil {
			t.Fatal(err)
		}
		if got := a.compose(t); !bytes.Equal(got, want) {
			t.Errorf("%s: recomposed artifact differs from %s (%d vs %d bytes)", a.name, a.path(), len(got), len(want))
		}
	}
}

// TestGoldenArtifactsResaveByteIdentical pins the RAPIDNN2 writer against the
// committed artifacts: loading each one and writing it back with SaveFlat
// must reproduce the file byte for byte.
func TestGoldenArtifactsResaveByteIdentical(t *testing.T) {
	for _, a := range goldenArtifacts {
		want, err := os.ReadFile(a.path())
		if err != nil {
			t.Fatal(err)
		}
		c, err := composer.LoadFile(a.path())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err = c.SaveFlat(&buf)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: re-saved artifact differs from %s (%d vs %d bytes)", a.name, a.path(), buf.Len(), len(want))
		}
	}
}

// TestGoldenExecutorDigests pins the hardware executor's outputs across
// commits: predictions, per-row substrate Stats and fault counters on small
// committed artifacts, fault-free and under one seeded fault map in each of
// goldenPasses. A change that alters any simulated number, oracle and fast
// path together included, fails here until testdata/golden.txt is
// regenerated with -update.
func TestGoldenExecutorDigests(t *testing.T) {
	var out strings.Builder
	out.WriteString("# Hardware-executor digests of the testdata artifacts (TestGoldenExecutorDigests).\n")
	out.WriteString("# Regenerate with: go test ./internal/rna -run TestGoldenExecutorDigests -update\n")
	for _, a := range goldenArtifacts {
		if _, err := os.Stat(a.path()); os.IsNotExist(err) && *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(a.path(), a.compose(t), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := composer.LoadFile(a.path())
		if err != nil {
			t.Fatal(err)
		}
		hw, err := rna.BuildHardwareNetwork(composer.NewReinterpreted(c.Net, c.Plans).Net(), c.Plans, device.Default())
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		in := c.Net.InSize()
		rng := rand.New(rand.NewSource(a.seed))
		data := make([]float32, goldenRows*in)
		for i := range data {
			data[i] = 2*rng.Float32() - 1
		}
		rows := tensor.FromSlice(data, goldenRows, in)

		fmt.Fprintf(&out, "%s clean %s\n", a.name, scoreArtifact(t, hw, rows, fault.Report{}))

		rep, err := hw.InjectFaults(goldenFaults)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range goldenPasses {
			hw.FaultCounters().Reset()
			hw.SetProtection(p.prot)
			faulty := scoreArtifact(t, hw, rows, rep)
			// A fault map that never engages a mechanism would pin nothing.
			if s := hw.FaultCounters().Snapshot(); i == 0 && (rep.CAMRowsFailed == 0 || s.Corrected == 0 || s.Remapped == 0 || s.TMRVotes == 0) {
				t.Fatalf("%s: fault scenario too mild: %+v, counters %+v", a.name, rep, s)
			}
			fmt.Fprintf(&out, "%s %s %s\n", a.name, p.name, faulty)
		}
		c.Close()
	}

	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("testdata/golden.txt has %d lines, the test produces %d (regenerate with -update)", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("digest moved: got %q, golden %q", got[i], wantLines[i])
		}
	}
	if t.Failed() {
		t.Log("regenerate with -update only for an intended change, and say which digests moved in CHANGES.md")
	}
}
