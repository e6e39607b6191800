package composer

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
)

// Compose must embed canaries that the model itself passes, and they must
// survive a serialization round trip.
func TestComposeEmbedsCanaries(t *testing.T) {
	net, ds := trainedFixture(t)
	cfg := fastConfig()
	cfg.MaxIterations = 1
	c, err := Compose(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Canaries) != 8 {
		t.Fatalf("composed model carries %d canaries, want the default 8", len(c.Canaries))
	}
	if failed, err := c.CheckCanaries(); err != nil || failed != 0 {
		t.Fatalf("fresh model fails its own canaries: failed=%d err=%v", failed, err)
	}
	var buf bytes.Buffer
	if err := c.SaveFlat(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlat(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Canaries) != len(c.Canaries) {
		t.Fatalf("canaries lost in round trip: %d vs %d", len(loaded.Canaries), len(c.Canaries))
	}
	if failed, err := loaded.CheckCanaries(); err != nil || failed != 0 {
		t.Fatalf("loaded model fails its canaries: failed=%d err=%v", failed, err)
	}
}

// A negative knob disables embedding; SynthesizeCanaries then fills the gap
// deterministically and never overwrites existing canaries.
func TestCanaryKnobAndSynthesis(t *testing.T) {
	net, ds := trainedFixture(t)
	cfg := fastConfig()
	cfg.MaxIterations = 1
	cfg.Canaries = -1
	c, err := Compose(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Canaries) != 0 {
		t.Fatalf("disabled canaries still embedded %d", len(c.Canaries))
	}
	c.SynthesizeCanaries(5, 9)
	if len(c.Canaries) != 5 {
		t.Fatalf("synthesized %d canaries, want 5", len(c.Canaries))
	}
	first := append([]float32(nil), c.Canaries[0].Input...)
	c.SynthesizeCanaries(3, 1234) // must be a no-op: canaries exist
	if len(c.Canaries) != 5 || c.Canaries[0].Input[0] != first[0] {
		t.Fatal("SynthesizeCanaries overwrote existing canaries")
	}
	if failed, err := c.CheckCanaries(); err != nil || failed != 0 {
		t.Fatalf("model fails synthesized canaries: failed=%d err=%v", failed, err)
	}
}

// A model whose weights were tampered with after the canaries were recorded
// must fail its self-test — the corruption signal the serving layer acts on.
func TestCanariesDetectTampering(t *testing.T) {
	net, ds := trainedFixture(t)
	cfg := fastConfig()
	cfg.MaxIterations = 1
	c, err := Compose(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Net.Layers[0].(*nn.Dense).W.Value.Data()
	rng := rand.New(rand.NewSource(77))
	for i := range w {
		w[i] = rng.Float32()*10 - 5
	}
	failed, err := c.CheckCanaries()
	if err != nil {
		t.Fatal(err)
	}
	if failed == 0 {
		t.Fatal("scrambled weights passed every canary")
	}
}

// The artifact reader must reject canaries that disagree with the network
// shape.
func TestLoadRejectsMalformedCanaries(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	net := nn.NewNetwork("m").Add(nn.NewDense("out", 4, 2, nn.Identity{}, rng))
	c := &Composed{Net: net, Plans: SyntheticPlans(net, 4, 4, 8)}
	for _, bad := range []Canary{
		{Input: []float32{1, 2, 3, 4}, Pred: 7},  // class out of range
		{Input: []float32{1, 2, 3, 4}, Pred: -1}, // negative class
	} {
		c.Canaries = []Canary{bad}
		if _, err := LoadFlat(mustSaveFlat(t, c)); err == nil {
			t.Fatalf("malformed canary %+v accepted", bad)
		}
	}

	// A canary of the wrong width: the writer refuses it, and an input
	// section that does not hold one row per canary fails at load.
	c.Canaries = []Canary{{Input: []float32{1, 2}, Pred: 0}}
	if err := c.SaveFlat(io.Discard); err == nil {
		t.Fatal("SaveFlat wrote a canary of the wrong width")
	}
	c.Canaries = []Canary{{Input: []float32{1, 2, 3, 4}, Pred: 0}}
	raw := relayFlat(t, mustSaveFlat(t, c), func(m *flatMeta) { m.CanaryPreds = append(m.CanaryPreds, 1) })
	if _, err := LoadFlat(raw); err == nil || !strings.Contains(err.Error(), "canary input values") {
		t.Fatalf("canary inputs of the wrong length: got %v", err)
	}
}
