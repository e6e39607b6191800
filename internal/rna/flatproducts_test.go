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

// The flat writer bakes product tables in composer.FlatProductFracBits; the
// hardware path computes in hwFracBits. planProducts only borrows when the
// two agree, so a drift between the constants would silently disable the
// zero-copy path everywhere. Pin them together.
func TestFlatProductFracBitsMatchesHardware(t *testing.T) {
	if composer.FlatProductFracBits != hwFracBits {
		t.Fatalf("composer.FlatProductFracBits = %d, rna hwFracBits = %d — flat product tables can never be borrowed",
			composer.FlatProductFracBits, hwFracBits)
	}
}

// A hardware network lowered from an mmap'd RAPIDNN2 artifact borrows its
// product tables straight out of the mapping; the answers must be
// bit-identical to a lowering of the original in-memory model, whose tables
// are recomputed locally.
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

	// The loaded plans must actually offer borrowable tables — otherwise this
	// test would pass by silently falling back to recomputation.
	for i, p := range loaded.Plans {
		for g := range p.WeightCodebooks {
			if planProducts(p, g) == nil {
				t.Fatalf("plan %d group %d: flat-loaded product table not borrowable", i, g)
			}
		}
	}

	ref, err := BuildHardwareNetwork(composer.NewReinterpreted(c.Net, c.Plans).Net(), c.Plans, dev())
	if err != nil {
		t.Fatal(err)
	}
	hw, err := BuildHardwareNetwork(composer.NewReinterpreted(loaded.Net, loaded.Plans).Net(), loaded.Plans, dev())
	if err != nil {
		t.Fatal(err)
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
