package composer

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nn"
)

// coldStartModel is a serving-scale artifact: wide dense stack, 32-level
// codebooks, 64-row activation tables — big enough that a decode pass would
// be dominated by table reconstruction, while the flat reader's work stays
// proportional to the section count, not the table bytes.
func coldStartModel(tb testing.TB) *Composed {
	tb.Helper()
	rng := rand.New(rand.NewSource(97))
	net := nn.NewNetwork("coldstart").
		Add(nn.NewDense("fc1", 256, 512, nn.Sigmoid{}, rng)).
		Add(nn.NewDense("fc2", 512, 256, nn.Sigmoid{}, rng)).
		Add(nn.NewDense("out", 256, 10, nn.Identity{}, rng))
	c := &Composed{Net: net, Plans: SyntheticPlans(net, 32, 32, 64)}
	c.SynthesizeCanaries(8, 97)
	return c
}

// BenchmarkColdStart measures artifact-open latency: LoadFile mmaps the
// RAPIDNN2 file and hands out views, so load time and allocations stay
// independent of how much table data the artifact carries.
func BenchmarkColdStart(b *testing.B) {
	c := coldStartModel(b)

	b.Run("flat", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "cold.rapidnn")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.SaveFlat(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(st.Size())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := LoadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			_ = m.Close()
		}
	})
}
