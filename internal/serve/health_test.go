package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/composer"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// corruptWeights scrambles a model's first-layer weights in place — the
// executor-state decay canaries exist to catch.
func corruptWeights(t *testing.T, net *nn.Network) {
	t.Helper()
	w := net.Layers[0].(*nn.Dense).W.Value.Data()
	rng := rand.New(rand.NewSource(99))
	for i := range w {
		w[i] = rng.Float32()*10 - 5
	}
}

// A fresh model passes its self-test; corrupting the served executor state
// flips it degraded; Scrub rebuilds from the pristine in-memory Composed and
// restores health.
func TestSelfTestDetectsCorruptionAndScrubRecovers(t *testing.T) {
	m := syntheticModel(t, true)
	rep := m.SelfTest()
	if rep.Degraded || rep.Total == 0 {
		t.Fatalf("fresh model unhealthy: %+v", rep)
	}

	// Corrupt the *served* software path (its cloned network), not the
	// in-memory artifact — this is what decay of live executor state means.
	corruptWeights(t, m.software().Net())
	rep = m.SelfTest()
	if rep.SoftwareFailed == 0 || !rep.Degraded {
		t.Fatalf("corrupted executor passed canaries: %+v", rep)
	}
	if !m.Degraded() {
		t.Fatal("model not marked degraded")
	}

	rep, err := m.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || m.Degraded() {
		t.Fatalf("scrub did not recover the model: %+v", rep)
	}
}

// The hardware path checks against its own pristine capture: corrupting the
// lowered network degrades the model even while the software path is clean.
func TestSelfTestCoversHardwarePath(t *testing.T) {
	m := syntheticModel(t, true)
	if rep := m.SelfTest(); rep.Degraded {
		t.Fatalf("fresh model unhealthy: %+v", rep)
	}
	// A heavy stuck-fault overlay corrupts the hardware answers only.
	if rep, err := m.hwNet().InjectFaults(fault.Config{StuckRate: 0.2, Seed: 3}); err != nil || rep.StuckBits == 0 {
		t.Fatalf("no faults injected: %+v, %v", rep, err)
	}
	rep := m.SelfTest()
	if rep.SoftwareFailed != 0 {
		t.Fatalf("software path unexpectedly failed: %+v", rep)
	}
	if rep.HardwareFailed == 0 || !rep.Degraded {
		t.Fatalf("faulty hardware path passed canaries: %+v", rep)
	}
	// Scrub relowers the hardware network (dropping the fault overlay with
	// the rest of the executor state) and recovers.
	if rep, err := m.Scrub(); err != nil || rep.Degraded {
		t.Fatalf("scrub did not recover: %+v err=%v", rep, err)
	}
}

// End-to-end over HTTP: a degraded model stops answering 200 and sheds with
// 503 while a healthy sibling keeps serving; /healthz and /v1/models report
// the degradation; POST /v1/scrub restores service.
func TestServerShedsDegradedModelAndScrubRestores(t *testing.T) {
	healthy := syntheticModel(t, false)
	sick, err := NewModel("sick", func() *composer.Composed {
		rng := rand.New(rand.NewSource(8))
		net := nn.NewNetwork("sick").
			Add(nn.NewDense("fc1", 12, 10, nn.ReLU{}, rng)).
			Add(nn.NewDense("out", 10, 4, nn.Identity{}, rng))
		return &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 8, 8, 16)}
	}(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(healthy); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(sick); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{Batcher: BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	corruptWeights(t, sick.software().Net())
	s.RunCanaries()

	rows := testRows(1, healthy.InSize(), 5)
	if resp, _ := postPredict(t, ts.URL, map[string]any{"model": "tiny", "inputs": rows}); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy model answered %d", resp.StatusCode)
	}
	resp, payload := postPredict(t, ts.URL, map[string]any{"model": "sick", "inputs": rows})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded model answered %d, want 503 (%v)", resp.StatusCode, payload)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable || health["status"] != "degraded" {
		t.Fatalf("healthz %d %v, want 503 degraded", hz.StatusCode, health)
	}

	mr, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models map[string][]modelInfo
	json.NewDecoder(mr.Body).Decode(&models)
	mr.Body.Close()
	states := map[string]string{}
	for _, info := range models["models"] {
		states[info.Name] = info.Health
	}
	if states["sick"] != "degraded" || states["tiny"] != "ok" {
		t.Fatalf("model health states %v", states)
	}

	body, _ := json.Marshal(map[string]string{"model": "sick"})
	sr, err := http.Post(ts.URL+"/v1/scrub", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var scrubRep CanaryReport
	json.NewDecoder(sr.Body).Decode(&scrubRep)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK || scrubRep.Degraded {
		t.Fatalf("scrub answered %d %+v", sr.StatusCode, scrubRep)
	}
	if resp, _ := postPredict(t, ts.URL, map[string]any{"model": "sick", "inputs": rows}); resp.StatusCode != http.StatusOK {
		t.Fatalf("scrubbed model still refused: %d", resp.StatusCode)
	}
}

// The periodic loop degrades a server booted on a corrupted disk artifact
// without any explicit trigger, and Scrub reloads the artifact from disk.
func TestCanaryLoopCatchesCorruptArtifact(t *testing.T) {
	// Build a valid artifact, then re-save it with scrambled weights but the
	// original (now stale) canaries: it loads fine, but self-tests fail.
	m := syntheticModel(t, false)
	good := filepath.Join(t.TempDir(), "model.rapidnn")
	save := func(path string, c *composer.Composed) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	save(good, m.Composed)

	loaded, err := LoadModelFile("m", good, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	corruptWeights(t, loaded.Composed.Net)
	save(good, loaded.Composed) // corrupted weights + stale canaries
	// Restore the artifact after the corrupt boot so scrub can heal from it.
	badModel, err := LoadModelFile("m", good, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	save(good, m.Composed)

	reg := NewRegistry()
	if err := reg.Add(badModel); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{
		Batcher:        BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond},
		CanaryInterval: 10 * time.Millisecond,
	})
	defer s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for !badModel.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("canary loop never degraded the corrupted model")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rep, err := badModel.Scrub(); err != nil || rep.Degraded {
		t.Fatalf("scrub from restored artifact failed: %+v err=%v", rep, err)
	}
}

// Regression: a lane keeps its InferFn for the model's lifetime, and the
// closure used to freeze the feature width captured at registration. A Scrub
// that swapped in an artifact with a different input size then mis-sliced
// every later batch (admission checked the live width, the closure flattened
// with the stale one). The width must be resolved per batch under the model
// lock. The artifacts here are RAPIDNN2, so the same test covers the
// mmap-backed swap: the displaced mapping is released while later batches
// read the new one.
func TestScrubPicksUpNewArtifactWidthAndRemapsFlat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.rapidnn")
	build := func(seed int64, in, hidden, out int) *composer.Composed {
		rng := rand.New(rand.NewSource(seed))
		net := nn.NewNetwork("resize").
			Add(nn.NewDense("fc1", in, hidden, nn.ReLU{}, rng)).
			Add(nn.NewDense("out", hidden, out, nn.Identity{}, rng))
		return &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 8, 8, 16)}
	}
	saveFlat := func(c *composer.Composed) {
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
	}

	saveFlat(build(21, 12, 10, 4))
	m, err := LoadModelFile("resize", path, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Composed.Mapped() {
		t.Fatal("flat artifact was not mmap'd")
	}
	reg := NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{Batcher: BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	if resp, payload := postPredict(t, ts.URL, map[string]any{"inputs": testRows(3, 12, 31)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-scrub predict answered %d: %v", resp.StatusCode, payload)
	}

	// Replace the artifact on disk with a model of a different feature width,
	// then scrub: the server must serve the new geometry, not mis-slice with
	// the old one.
	saveFlat(build(22, 16, 9, 5))
	body, _ := json.Marshal(map[string]string{"model": "resize"})
	sr, err := http.Post(ts.URL+"/v1/scrub", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep CanaryReport
	json.NewDecoder(sr.Body).Decode(&rep)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK || rep.Degraded {
		t.Fatalf("scrub answered %d %+v", sr.StatusCode, rep)
	}
	if got := m.InSize(); got != 16 {
		t.Fatalf("post-scrub InSize = %d, want 16", got)
	}

	// Old-width rows are now malformed and must be rejected at admission.
	if resp, _ := postPredict(t, ts.URL, map[string]any{"inputs": testRows(1, 12, 32)}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale-width row answered %d, want 400", resp.StatusCode)
	}

	// New-width rows must flow through the swapped mmap-backed executor state
	// and match an independent load of the same artifact bit-for-bit.
	rows := testRows(3, 16, 33)
	resp, payload := postPredict(t, ts.URL, map[string]any{"inputs": rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-scrub predict answered %d: %v", resp.StatusCode, payload)
	}
	ref, err := composer.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	re := composer.NewReinterpreted(ref.Net, ref.Plans)
	flat := make([]float32, 0, 3*16)
	for _, row := range rows {
		flat = append(flat, row...)
	}
	want := re.Predict(tensor.FromSlice(flat, 3, 16))
	preds := payload["predictions"].([]any)
	for i := range want {
		if int(preds[i].(float64)) != want[i] {
			t.Fatalf("row %d: served %v after scrub, independent load says %d", i, preds[i], want[i])
		}
	}
}
