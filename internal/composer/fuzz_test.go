package composer

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// fuzzSeedFlat serializes a small hand-built composed model — a valid
// artifact the fuzzer mutates from, so coverage starts inside the decoder
// rather than at the magic check.
func fuzzSeedFlat(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(62))
	net := nn.NewNetwork("fuzz-flat").
		Add(nn.NewDense("fc", 6, 5, nn.Sigmoid{}, rng)).
		Add(nn.NewDense("out", 5, 3, nn.Identity{}, rng))
	c := &Composed{Net: net, Plans: SyntheticPlans(net, 8, 8, 16), BaselineError: 0.1, FinalError: 0.12}
	c.SynthesizeCanaries(3, 62)
	var buf bytes.Buffer
	if err := c.SaveFlat(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadFlat drives the RAPIDNN2 reader directly with arbitrary bytes:
// header parsing, the section table, checksum verification and the
// reference-resolving metadata decode must never panic, and the validated
// model invariant holds whenever an input is accepted.
func FuzzLoadFlat(f *testing.F) {
	valid := fuzzSeedFlat(f)
	f.Add(valid)
	f.Add(valid[:flatHeaderSize])   // header only
	f.Add(valid[:len(valid)/2])     // cut inside the sections
	f.Add(valid[:flatHeaderSize+8]) // cut inside the section table
	flipped := append([]byte(nil), valid...)
	flipped[flatHeaderSize+4] ^= 0x80 // corrupt a table entry CRC field
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(flatMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadFlat(data)
		if err == nil && c == nil {
			t.Fatal("LoadFlat returned neither a model nor an error")
		}
		if err != nil && c != nil {
			t.Fatal("LoadFlat returned a model alongside an error")
		}
		if c != nil && len(c.Plans) != len(c.Net.Layers) {
			t.Fatalf("accepted model has %d plans for %d layers", len(c.Plans), len(c.Net.Layers))
		}
	})
}
