package composer

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestSaveLoadRoundTripDense(t *testing.T) {
	net, ds := trainedFixture(t)
	cfg := fastConfig()
	cfg.MaxIterations = 1
	c, err := Compose(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlat(mustSaveFlat(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.FinalError != c.FinalError || loaded.BaselineError != c.BaselineError {
		t.Fatal("quality metadata lost")
	}
	// The loaded model must classify identically.
	reA := NewReinterpreted(c.Net, c.Plans)
	reB := NewReinterpreted(loaded.Net, loaded.Plans)
	in := ds.InSize()
	x := tensor.FromSlice(ds.TestX.Data()[:16*in], 16, in)
	pa, pb := reA.Predict(x), reB.Predict(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("prediction %d differs after round trip: %d vs %d", i, pa[i], pb[i])
		}
	}
}

func TestSaveLoadAllLayerKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2D("cv", g, 2, nn.Sigmoid{}, rng)
	pg := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 2, KW: 2, Stride: 2}
	net := nn.NewNetwork("kinds").
		Add(conv).
		Add(nn.NewPool2D("pl", nn.MaxPool, pg)).
		Add(nn.NewDense("fc", 18, 18, nn.Tanh{}, rng)).
		Add(nn.NewResidualDense("res", 18, nn.ReLU{}, rng)).
		Add(nn.NewDropout("do", 18, 0.1, rng)).
		Add(nn.NewDense("out", 18, 3, nn.Identity{}, rng))
	plans := SyntheticPlans(net, 8, 8, 16)
	c := &Composed{Net: net, Plans: plans, BaselineError: 0.1, FinalError: 0.12, TotalEpochs: 3}

	loaded, err := LoadFlat(mustSaveFlat(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Net.Layers) != len(net.Layers) {
		t.Fatalf("layer count %d, want %d", len(loaded.Net.Layers), len(net.Layers))
	}
	// Residual flag and weights must survive.
	res := loaded.Net.Layers[3].(*nn.Dense)
	if !res.Skip {
		t.Fatal("residual flag lost")
	}
	orig := net.Layers[3].(*nn.Dense)
	if !res.W.Value.Equal(orig.W.Value, 0) {
		t.Fatal("weights corrupted")
	}
	// Forward passes agree exactly.
	x := tensor.New(2, net.InSize())
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	if !loaded.Net.Forward(x, false).Equal(net.Forward(x, false), 1e-6) {
		t.Fatal("loaded network computes differently")
	}
}

func TestSaveLoadRecurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	net := nn.NewNetwork("rnn").
		Add(nn.NewRecurrent("rnn", 3, 6, 4, nn.Tanh{}, rng)).
		Add(nn.NewDense("out", 6, 2, nn.Identity{}, rng))
	plans := SyntheticPlans(net, 8, 8, 16)
	if plans[0].Kind != KindRecurrent || plans[0].Edges != 4*(3+6) {
		t.Fatalf("synthetic recurrent plan malformed: %+v", plans[0])
	}
	c := &Composed{Net: net, Plans: plans}
	loaded, err := LoadFlat(mustSaveFlat(t, c))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 12)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	if !loaded.Net.Forward(x, false).Equal(net.Forward(x, false), 1e-6) {
		t.Fatal("loaded RNN computes differently")
	}
	if loaded.Plans[0].Kind != KindRecurrent {
		t.Fatal("plan kind lost")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadFlat([]byte("not a model")); err == nil {
		t.Fatal("garbage must fail to load")
	}
}

// snapshotBytes serializes a small dense model and returns its RAPIDNN2
// bytes, for the corruption tests to mangle.
func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(53))
	// Sigmoid (not ReLU) so the first plan carries an ActTable for the
	// activation-table corruption cases.
	net := nn.NewNetwork("hard").
		Add(nn.NewDense("fc", 6, 5, nn.Sigmoid{}, rng)).
		Add(nn.NewDense("out", 5, 2, nn.Identity{}, rng))
	c := &Composed{Net: net, Plans: SyntheticPlans(net, 8, 8, 16)}
	c.SynthesizeCanaries(2, 53)
	return mustSaveFlat(t, c)
}

func TestLoadTruncatedStream(t *testing.T) {
	raw := snapshotBytes(t)
	// Every prefix must fail with a wrapped error, never a panic — including
	// the empty file and a cut in the middle of the weight payload.
	for _, n := range []int{0, 1, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		c, err := LoadFlat(raw[:n])
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes loaded successfully", n, len(raw))
		}
		if c != nil {
			t.Fatalf("truncation at %d bytes returned a non-nil model with error %v", n, err)
		}
		if !strings.Contains(err.Error(), "composer:") {
			t.Fatalf("truncation at %d bytes: error %q not wrapped with package context", n, err)
		}
	}
}

func TestLoadCorruptedBytes(t *testing.T) {
	raw := snapshotBytes(t)
	// Flip bytes at positions spread across the file — header, section
	// table, metadata and weight sections. Every corruption must come back as
	// an error — the checksums cover every byte that is not alignment
	// padding — or, for a flip in the padding, a well-formed model; never a
	// panic.
	for pos := 0; pos < len(raw); pos += len(raw)/37 + 1 {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0xff
		c, err := LoadFlat(mut)
		if err == nil && c == nil {
			t.Fatalf("flip at byte %d: nil model with nil error", pos)
		}
		if err != nil && c != nil {
			t.Fatalf("flip at byte %d: model alongside error %v", pos, err)
		}
	}
}

func TestLoadWrongMagicNamesFormat(t *testing.T) {
	mut := snapshotBytes(t)
	copy(mut, "NOTAMODL")
	_, err := LoadFlat(mut)
	if err == nil {
		t.Fatal("wrong magic must fail to load")
	}
	if !strings.Contains(err.Error(), flatMagic) {
		t.Fatalf("magic-mismatch error %q does not name the expected %s format", err, flatMagic)
	}
	if !strings.Contains(err.Error(), "NOTAMODL") {
		t.Fatalf("magic-mismatch error %q does not echo the bogus magic", err)
	}
}

func TestLoadRejectsMismatchedWeightLength(t *testing.T) {
	// An artifact whose weight reference disagrees with the declared geometry
	// must be rejected by name, not crash the tensor fill: layer 0's weights
	// point at its 5-value bias section.
	raw := relayFlat(t, snapshotBytes(t), func(m *flatMeta) { m.Layers[0].W = m.Layers[0].B })
	loadMustFail(t, "weight slice vs layer geometry", raw, "layer 0 (fc): weight tensor has 5 values")
}

// TestLoadRejectsInconsistentPlans edits plan, product-table and canary
// fields in an artifact's metadata after it was written. Metadata that decodes cleanly
// but describes an inconsistent plan previously escaped the loader and
// detonated later on a serving goroutine (ActTable.Eval indexing a short Z
// column, downstream code trusting negative geometry or a mislabeled kind).
// Every case must be rejected at load time with a descriptive error.
func TestLoadRejectsInconsistentPlans(t *testing.T) {
	raw := snapshotBytes(t)
	cases := []struct {
		name   string
		errHas string
		mutate func(m *flatMeta)
	}{
		// The 8-entry input codebook section stands in for a Z column
		// shorter than the 16-row Y column.
		{"short ActZ", "Z rows", func(m *flatMeta) { m.Plans[0].ActZ = m.Plans[0].InputCodebook }},
		{"empty Z", "empty Z", func(m *flatMeta) { m.Plans[0].ActZ = flatRef{} }},
		{"negative neurons", "geometry", func(m *flatMeta) { m.Plans[0].Neurons = -4 }},
		{"negative edges", "geometry", func(m *flatMeta) { m.Plans[1].Edges = -1 }},
		{"kind out of range", "kind", func(m *flatMeta) { m.Plans[0].Kind = 17 }},
		{"plan kind vs layer kind", "kind", func(m *flatMeta) { m.Plans[0].Kind = int(KindConv) }},
		{"channel to missing codebook", "codebook", func(m *flatMeta) { m.Plans[0].ChannelCodebook = []int32{9} }},
		{"empty input codebook", "input codebook", func(m *flatMeta) { m.Plans[0].InputCodebook = flatRef{} }},
		{"canary class out of range", "canary 0 predicts class 99", func(m *flatMeta) { m.CanaryPreds[0] = 99 }},
		// Tables in any other fixed-point format would configure crossbars
		// that disagree with the executor's sums and biases.
		{"product fraction bits", "product tables have 8 fraction bits, want 16", func(m *flatMeta) { m.ProductFracBits = 8 }},
	}
	for _, tc := range cases {
		loadMustFail(t, tc.name, relayFlat(t, raw, tc.mutate), tc.errHas)
	}
}

func TestSaveLoadPreservesPlanIndexAndRawInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	net := nn.NewNetwork("idx").
		Add(nn.NewDense("fc", 6, 5, nn.Sigmoid{}, rng)).
		Add(nn.NewDense("out", 5, 2, nn.Identity{}, rng))
	c := &Composed{Net: net, Plans: SyntheticPlans(net, 8, 8, 16)}
	loaded, err := LoadFlat(mustSaveFlat(t, c))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range loaded.Plans {
		if p.Index != c.Plans[i].Index {
			t.Fatalf("plan %d: Index %d, want %d (silently dropped by the snapshot schema)", i, p.Index, c.Plans[i].Index)
		}
		if p.RawInputs != c.Plans[i].RawInputs {
			t.Fatalf("plan %d: RawInputs %d, want %d", i, p.RawInputs, c.Plans[i].RawInputs)
		}
	}
}

func TestLoadRejectsInvalidGeometry(t *testing.T) {
	raw := snapshotBytes(t)
	cases := []struct {
		name   string
		errHas string
		mutate func(m *flatMeta)
	}{
		{"negative dense out", "non-positive shape", func(m *flatMeta) { m.Layers[0].Out = -4 }},
		{"unknown activation", "unknown activation", func(m *flatMeta) { m.Layers[0].Act = "sincos" }},
		{"unknown layer kind", "unknown layer kind", func(m *flatMeta) { m.Layers[0].Kind = "attention" }},
		{"plan/layer mismatch", "1 plans for 2 layers", func(m *flatMeta) { m.Plans = m.Plans[:1] }},
	}
	for _, tc := range cases {
		loadMustFail(t, tc.name, relayFlat(t, raw, tc.mutate), tc.errHas)
	}
}
