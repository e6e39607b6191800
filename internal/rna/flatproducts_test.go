package rna

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/composer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// A hardware network lowered from an mmap'd RAPIDNN2 artifact borrows its
// product tables straight out of the mapping; the answers must be
// bit-identical to a lowering of the original in-memory model, whose tables
// LayerPlan.ProductTable composes on demand.
func TestHardwareBorrowsFlatProductTablesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	net := nn.NewNetwork("flat-hw").
		Add(nn.NewDense("fc1", 14, 12, nn.Sigmoid{}, rng)).
		Add(nn.NewDense("fc2", 12, 10, nn.Tanh{}, rng)).
		Add(nn.NewDense("out", 10, 5, nn.Identity{}, rng))
	c := &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 12, 12, 24)}

	path := filepath.Join(t.TempDir(), "model.rapidnn")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SaveFlat(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := composer.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if !loaded.Mapped() {
		t.Fatal("LoadFile did not map the artifact")
	}

	ref, err := BuildHardwareNetwork(composer.NewReinterpreted(c.Net, c.Plans).Net(), c.Plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	hw, err := BuildHardwareNetwork(composer.NewReinterpreted(loaded.Net, loaded.Plans).Net(), loaded.Plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	// Every block must configure its crossbar from the mapping itself —
	// otherwise this test would compare two composed copies of the tables.
	for _, hl := range hw.layers {
		for g, r := range hl.rnas {
			if tab := hl.plan.Products; len(tab) <= g || &r.products[0] != &tab[g][0] {
				t.Fatalf("layer %s group %d: block does not borrow the artifact's product table", hl.traceName, g)
			}
		}
	}

	const n = 24
	in := net.InSize()
	flat := make([]float32, n*in)
	for i := range flat {
		flat[i] = 2*rng.Float32() - 1
	}
	x := tensor.FromSlice(flat, n, in)
	want, wantStats, err := ref.InferBatchStats(x)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := hw.InferBatchStats(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: borrowed-table lowering predicted %d, local lowering %d", i, got[i], want[i])
		}
	}
	if gotStats != wantStats {
		t.Fatalf("borrowed-table lowering charged %+v, local lowering %+v", gotStats, wantStats)
	}
}
