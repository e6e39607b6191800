package composer

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// flatFixture builds a small multi-kind composed model and returns it with
// its RAPIDNN2 encoding.
func flatFixture(t testing.TB) (*Composed, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	pg := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 2, KW: 2, Stride: 2}
	net := nn.NewNetwork("flat-kinds").
		Add(nn.NewConv2D("cv", g, 2, nn.Sigmoid{}, rng)).
		Add(nn.NewPool2D("pl", nn.MaxPool, pg)).
		Add(nn.NewDense("fc", 18, 18, nn.Tanh{}, rng)).
		Add(nn.NewDropout("do", 18, 0.1, rng)).
		Add(nn.NewDense("out", 18, 3, nn.Identity{}, rng))
	c := &Composed{Net: net, Plans: SyntheticPlans(net, 8, 8, 16),
		BaselineError: 0.1, FinalError: 0.12, TotalEpochs: 3}
	c.SynthesizeCanaries(3, 71)
	var buf bytes.Buffer
	if err := c.SaveFlat(&buf); err != nil {
		t.Fatal(err)
	}
	return c, buf.Bytes()
}

func TestFlatRoundTripAllLayerKinds(t *testing.T) {
	c, raw := flatFixture(t)
	loaded, err := LoadFlat(raw)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.FinalError != c.FinalError || loaded.BaselineError != c.BaselineError ||
		loaded.TotalEpochs != c.TotalEpochs {
		t.Fatal("quality metadata lost")
	}
	if len(loaded.Net.Layers) != len(c.Net.Layers) {
		t.Fatalf("layer count %d, want %d", len(loaded.Net.Layers), len(c.Net.Layers))
	}
	for i, p := range loaded.Plans {
		if p.Index != c.Plans[i].Index {
			t.Fatalf("plan %d: Index %d, want %d", i, p.Index, c.Plans[i].Index)
		}
		if p.RawInputs != c.Plans[i].RawInputs {
			t.Fatalf("plan %d: RawInputs %d, want %d", i, p.RawInputs, c.Plans[i].RawInputs)
		}
	}
	// Pre-composed product tables come back at the geometry the lowering
	// expects, bit-identical to a local composition.
	for i, p := range loaded.Plans {
		if !p.IsCompute() {
			continue
		}
		if len(p.Products) != len(p.WeightCodebooks) {
			t.Fatalf("plan %d: %d product tables for %d groups", i, len(p.Products), len(p.WeightCodebooks))
		}
		for g, tab := range p.Products {
			want := productTable(p.WeightCodebooks[g], p.InputCodebook, FlatProductFracBits)
			if len(tab) != len(want) {
				t.Fatalf("plan %d group %d: table len %d, want %d", i, g, len(tab), len(want))
			}
			for k := range tab {
				if tab[k] != want[k] {
					t.Fatalf("plan %d group %d entry %d: %d, want %d", i, g, k, tab[k], want[k])
				}
			}
		}
	}
	if len(loaded.Canaries) != len(c.Canaries) {
		t.Fatalf("canary count %d, want %d", len(loaded.Canaries), len(c.Canaries))
	}
	// Forward passes agree exactly.
	rng := rand.New(rand.NewSource(72))
	x := tensor.New(2, c.Net.InSize())
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	if !loaded.Net.Forward(x, false).Equal(c.Net.Forward(x, false), 0) {
		t.Fatal("flat-loaded network computes differently")
	}
}

func TestFlatLoadPredictsLikeInMemoryOnRegistry(t *testing.T) {
	// Every registry benchmark: a model loaded back from its RAPIDNN2 bytes
	// must predict bit-identically to the in-memory model it was saved from.
	for _, name := range dataset.Names() {
		ds, err := dataset.ByName(name, dataset.Small)
		if err != nil {
			t.Fatal(err)
		}
		net := model.FCNet(name, ds.InSize(), ds.NumClasses, 0.05, 2)
		c := &Composed{Net: net, Plans: SyntheticPlans(net, 8, 8, 16)}
		c.SynthesizeCanaries(2, 7)
		var buf bytes.Buffer
		if err := c.SaveFlat(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loaded, err := LoadFlat(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.Plans[0].Products == nil && loaded.Plans[0].IsCompute() {
			t.Fatalf("%s: flat loader dropped the product tables", name)
		}
		in := ds.InSize()
		n := 8
		x := tensor.FromSlice(ds.TestX.Data()[:n*in], n, in)
		want := NewReinterpreted(c.Net, c.Plans).Predict(x)
		got := NewReinterpreted(loaded.Net, loaded.Plans).Predict(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: prediction %d differs after the round trip: in-memory %d vs loaded %d", name, i, want[i], got[i])
			}
		}
	}
}

func TestOpenFlatMmap(t *testing.T) {
	c, raw := flatFixture(t)
	path := filepath.Join(t.TempDir(), "model.rapidnn")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Mapped() {
		t.Fatal("LoadFile model not marked as mapped")
	}
	// Predictions through the borrowed tables match the original.
	rng := rand.New(rand.NewSource(73))
	x := tensor.New(4, c.Net.InSize())
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	pa := NewReinterpreted(c.Net, c.Plans).Predict(x)
	pb := NewReinterpreted(m.Net, m.Plans).Predict(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("prediction %d differs through the mapping: %d vs %d", i, pa[i], pb[i])
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Mapped() {
		t.Fatal("model still marked mapped after Close")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
}

// gobArtifact returns the start of a retired RAPIDNN1 artifact: a gob stream
// whose magic lives inside the encoding, not in its first bytes.
func gobArtifact(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	snap := struct{ Magic, NetName string }{"RAPIDNN1", "gob"}
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadFileRejectsGob(t *testing.T) {
	raw := gobArtifact(t)
	path := filepath.Join(t.TempDir(), "gob.rapidnn")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(entry string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a RAPIDNN1 gob stream", entry)
		}
		if want := fmt.Sprintf("not a RAPIDNN2 artifact (magic %q)", raw[:8]); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not contain %q", entry, err, want)
		}
	}
	c, err := LoadFile(path)
	if c != nil {
		t.Fatal("LoadFile returned a model alongside an error")
	}
	check("LoadFile", err)
	_, err = LoadFlat(raw)
	check("LoadFlat", err)
	_, err = VerifyFile(path)
	check("VerifyFile", err)

	// The failed loads must have unmapped the file again.
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps to check for a leaked mapping: %v", err)
	}
	if strings.Contains(string(maps), path) {
		t.Fatalf("%s is still mapped after the rejected loads", path)
	}
}

// refixTableCRC recomputes the section-table checksum after a test mutated
// the table, so the corruption under test is reached instead of masked.
func refixTableCRC(raw []byte) {
	ne := binary.NativeEndian
	n := int(ne.Uint32(raw[16:20]))
	table := raw[flatHeaderSize : flatHeaderSize+n*flatEntrySize]
	ne.PutUint32(raw[20:24], crc32.Checksum(table, castagnoli))
}

func TestFlatRejectsCorruptHeader(t *testing.T) {
	_, raw := flatFixture(t)
	ne := binary.NativeEndian
	cases := []struct {
		name   string
		errHas string
		mutate func(b []byte)
	}{
		{"wrong magic", "magic", func(b []byte) { b[0] = 'X' }},
		{"future version", "version", func(b []byte) { ne.PutUint32(b[8:12], 99) }},
		{"foreign byte order", "byte order", func(b []byte) { ne.PutUint32(b[12:16], 0x04030201) }},
		{"wrong file size", "truncated", func(b []byte) { ne.PutUint64(b[24:32], uint64(len(b))+8) }},
		{"zero sections", "section count", func(b []byte) { ne.PutUint32(b[16:20], 0) }},
		{"implausible sections", "section count", func(b []byte) { ne.PutUint32(b[16:20], 1<<30) }},
		{"table checksum", "section table checksum", func(b []byte) { b[flatHeaderSize] ^= 0xff }},
	}
	for _, tc := range cases {
		mut := append([]byte(nil), raw...)
		tc.mutate(mut)
		c, err := LoadFlat(mut)
		if err == nil {
			t.Fatalf("%s: corrupted artifact loaded successfully", tc.name)
		}
		if c != nil {
			t.Fatalf("%s: non-nil model alongside error %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.errHas) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.errHas)
		}
	}
}

func TestFlatRejectsSectionCorruption(t *testing.T) {
	_, raw := flatFixture(t)
	ne := binary.NativeEndian
	n := int(ne.Uint32(raw[16:20]))
	entry := func(b []byte, i int) []byte {
		return b[flatHeaderSize+i*flatEntrySize : flatHeaderSize+(i+1)*flatEntrySize]
	}
	t.Run("payload bit flip", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		off := ne.Uint64(entry(mut, 1)[8:16]) // first blob section
		mut[off] ^= 0x01
		_, err := LoadFlat(mut)
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("payload corruption not caught by the section checksum: %v", err)
		}
	})
	t.Run("misaligned offset", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		e := entry(mut, 1)
		ne.PutUint64(e[8:16], ne.Uint64(e[8:16])+1)
		refixTableCRC(mut)
		_, err := LoadFlat(mut)
		if err == nil || !strings.Contains(err.Error(), "misaligned") {
			t.Fatalf("misaligned section accepted: %v", err)
		}
	})
	t.Run("section out of bounds", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		e := entry(mut, 1)
		ne.PutUint64(e[16:24], uint64(len(mut))*2)
		refixTableCRC(mut)
		_, err := LoadFlat(mut)
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("out-of-bounds section accepted: %v", err)
		}
	})
	t.Run("unknown section kind", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		ne.PutUint32(entry(mut, 1)[0:4], 42)
		refixTableCRC(mut)
		_, err := LoadFlat(mut)
		if err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Fatalf("unknown section kind accepted: %v", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for _, cut := range []int{0, 7, flatHeaderSize - 1, flatHeaderSize + 3,
			flatHeaderSize + n*flatEntrySize - 1, len(raw) / 2, len(raw) - 1} {
			c, err := LoadFlat(raw[:cut])
			if err == nil {
				t.Fatalf("truncation at %d/%d bytes loaded successfully", cut, len(raw))
			}
			if c != nil {
				t.Fatalf("truncation at %d: non-nil model with error %v", cut, err)
			}
		}
	})
}

// mustSaveFlat encodes a deliberately malformed Composed: the writer does
// not validate (the loader is the trust boundary), which is exactly what
// lets these regression tests produce corrupt artifacts.
func mustSaveFlat(t *testing.T, c *Composed) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.SaveFlat(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// relayFlat decodes raw's metadata section, lets mutate edit it, and lays
// the file out again with fresh checksums. It reaches the corruptions the
// writer cannot produce from a Composed — a header that contradicts its
// weights, an unknown layer kind — past the checksums, so the loader's own
// semantic checks are what must reject them.
func relayFlat(t *testing.T, raw []byte, mutate func(m *flatMeta)) []byte {
	t.Helper()
	secs, err := parseFlat(raw)
	if err != nil {
		t.Fatal(err)
	}
	var meta flatMeta
	if err := gob.NewDecoder(bytes.NewReader(secs[0].data)).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	mutate(&meta)
	var metaBuf bytes.Buffer
	if err := gob.NewEncoder(&metaBuf).Encode(meta); err != nil {
		t.Fatal(err)
	}
	fb := &flatBuilder{}
	for _, sec := range secs {
		fb.kinds = append(fb.kinds, sec.kind)
		fb.blobs = append(fb.blobs, sec.data)
	}
	fb.blobs[0] = metaBuf.Bytes()
	return fb.layout()
}

func TestFlatRejectsInconsistentPlans(t *testing.T) {
	build := func() *Composed {
		rng := rand.New(rand.NewSource(75))
		net := nn.NewNetwork("bad").
			Add(nn.NewDense("fc", 6, 5, nn.Sigmoid{}, rng)).
			Add(nn.NewDense("out", 5, 2, nn.Identity{}, rng))
		return &Composed{Net: net, Plans: SyntheticPlans(net, 8, 8, 16)}
	}
	cases := []struct {
		name   string
		errHas string
		mutate func(c *Composed)
	}{
		// Satellite bugfix 1: ActZ shorter than ActY previously escaped Load
		// and panicked later in ActTable.Eval on a serving goroutine.
		{"short ActZ", "Z rows", func(c *Composed) {
			c.Plans[0].ActTable.Z = c.Plans[0].ActTable.Z[:3]
		}},
		{"empty Z", "empty Z", func(c *Composed) {
			c.Plans[0].ActTable.Z = nil
		}},
		{"unsorted ActY", "unsorted", func(c *Composed) {
			y := append([]float32(nil), c.Plans[0].ActTable.Y...)
			y[0], y[1] = y[1]+1, y[0]
			c.Plans[0].ActTable.Y = y
		}},
		// Satellite bugfix 3: negative geometry and out-of-range kinds were
		// accepted and trusted by all downstream indexing.
		{"negative neurons", "geometry", func(c *Composed) { c.Plans[0].Neurons = -4 }},
		{"negative edges", "geometry", func(c *Composed) { c.Plans[1].Edges = -1 }},
		{"kind out of range", "kind", func(c *Composed) { c.Plans[0].Kind = LayerKind(17) }},
		{"plan kind vs layer kind", "kind", func(c *Composed) { c.Plans[0].Kind = KindConv }},
		{"channel to missing codebook", "codebook", func(c *Composed) { c.Plans[0].ChannelCodebook = []int{3} }},
		{"unsorted weight codebook", "unsorted", func(c *Composed) {
			cb := append([]float32(nil), c.Plans[0].WeightCodebooks[0]...)
			cb[0] = cb[len(cb)-1] + 1
			c.Plans[0].WeightCodebooks = [][]float32{cb}
		}},
	}
	for _, tc := range cases {
		c := build()
		tc.mutate(c)
		loadMustFail(t, tc.name, mustSaveFlat(t, c), tc.errHas)
	}
}

// loadMustFail fails the test unless LoadFlat rejects raw with an error that
// contains errHas and returns no model alongside it.
func loadMustFail(t *testing.T, name string, raw []byte, errHas string) {
	t.Helper()
	m, err := LoadFlat(raw)
	if err == nil {
		t.Fatalf("%s: malformed artifact loaded successfully", name)
	}
	if m != nil {
		t.Fatalf("%s: non-nil model alongside error %v", name, err)
	}
	if !strings.Contains(err.Error(), errHas) {
		t.Fatalf("%s: error %q does not mention %q", name, err, errHas)
	}
}

func TestFlatLoadAllocsIndependentOfProducts(t *testing.T) {
	// The zero-copy contract, pinned: loading a model whose product tables
	// are 36× larger must not allocate more — every table is a view into the
	// input bytes, so allocations scale with section count, not size.
	rng := rand.New(rand.NewSource(76))
	net := nn.NewNetwork("alloc").
		Add(nn.NewDense("fc", 12, 10, nn.Sigmoid{}, rng)).
		Add(nn.NewDense("out", 10, 4, nn.Identity{}, rng))
	encode := func(w, u int) []byte {
		c := &Composed{Net: net, Plans: SyntheticPlans(net, w, u, 16)}
		var buf bytes.Buffer
		if err := c.SaveFlat(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	small, big := encode(8, 8), encode(48, 48)
	measure := func(raw []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := LoadFlat(raw); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := measure(small), measure(big)
	// Identical section counts ⇒ near-identical allocation counts; the slack
	// absorbs map growth inside gob's decoder.
	if b > a+8 {
		t.Fatalf("allocations grew with product-table size: %v (w=u=8) vs %v (w=u=48)", a, b)
	}
}
