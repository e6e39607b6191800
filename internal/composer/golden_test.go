package composer_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/composer"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/nn"
)

// update rewrites testdata/golden.txt instead of comparing against it. Every
// rewrite moves the cross-commit reference, so record which digests moved,
// and why, in CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/golden.txt instead of comparing")

// goldenRecipe is one fixed train-and-compose run whose RAPIDNN2 bytes are
// pinned: a change in nn, cluster, quant or the composer that moves any
// trained weight, codebook, table or the artifact layout changes the digest.
type goldenRecipe struct {
	name  string
	build func() (*nn.Network, *dataset.Dataset)
	train model.TrainConfig
	w, u  int
}

var goldenRecipes = []goldenRecipe{
	{
		name: "dense",
		build: func() (*nn.Network, *dataset.Dataset) {
			ds := dataset.MNIST(dataset.Small)
			return model.FCNet("MNIST", ds.InSize(), 10, 0.08, 1), ds
		},
		train: model.TrainConfig{Epochs: 2, BatchSize: 32, LR: 0.05, Momentum: 0.9},
		w:     64, u: 64,
	},
	{
		// Conv and max-pool layers, at w = u = 16 to keep it quick.
		name: "conv-pool",
		build: func() (*nn.Network, *dataset.Dataset) {
			for _, b := range model.Benchmarks(dataset.Small, 0.0625) {
				if b.Net.Name == "CIFAR-10" {
					return b.Net, b.Dataset
				}
			}
			panic("no CIFAR-10 benchmark")
		},
		train: model.TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.02, Momentum: 0.9},
		w:     16, u: 16,
	},
}

// TestGoldenArtifactDigests pins the RAPIDNN2 bytes SaveFlat writes for two
// fixed recipes across commits. Only -update rewrites testdata/golden.txt.
func TestGoldenArtifactDigests(t *testing.T) {
	var out strings.Builder
	out.WriteString("# sha256 of the SaveFlat bytes of each recipe (TestGoldenArtifactDigests).\n")
	out.WriteString("# Regenerate with: go test ./internal/composer -run TestGoldenArtifactDigests -update\n")
	for _, r := range goldenRecipes {
		net, ds := r.build()
		model.Train(net, ds, r.train)
		cfg := composer.DefaultConfig()
		cfg.WeightClusters, cfg.InputClusters = r.w, r.u
		cfg.MaxIterations, cfg.RetrainEpochs, cfg.SampleFrac = 1, 1, 0.2
		c, err := composer.Compose(net, ds, cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var buf bytes.Buffer
		if err := c.SaveFlat(&buf); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&out, "%s %d %s\n", r.name, buf.Len(), hex.EncodeToString(sum[:]))
	}

	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("artifact digests moved:\ngot:\n%s\ngolden:\n%s", got, want)
		t.Log("regenerate with -update only for an intended change, and say which digests moved in CHANGES.md")
	}
}
