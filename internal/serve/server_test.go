package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/rna"
	"repro/internal/tensor"
)

// syntheticModel builds a tiny untrained model with evenly spaced synthetic
// codebooks: its answers are arbitrary but fully deterministic, which is all
// the bit-identity tests need — no compose run required.
func syntheticModel(t testing.TB, hardware bool) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	net := nn.NewNetwork("tiny").
		Add(nn.NewDense("fc1", 12, 10, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 10, 4, nn.Identity{}, rng))
	c := &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 8, 8, 16)}
	m, err := NewModel("tiny", c, hardware, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testRows returns n deterministic feature rows in the codebook range.
func testRows(n, in int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float32, n)
	for i := range rows {
		row := make([]float32, in)
		for j := range row {
			row[j] = 2*rng.Float32() - 1
		}
		rows[i] = row
	}
	return rows
}

func postPredict(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, payload
}

// The acceptance test: ≥32 concurrent clients through the hardware path
// must each receive the prediction a serial one-row inference produces for
// their row, and the lane's substrate counters must equal the serial totals.
func TestServeConcurrentClientsBitIdenticalToSerialInfer(t *testing.T) {
	m := syntheticModel(t, true)
	const clients = 48
	rows := testRows(clients, m.InSize(), 11)

	// Serial reference on an independently lowered network: same artifact,
	// same configuration, untouched by the server.
	ref, err := rna.BuildHardwareNetwork(m.re.Net(), m.Composed.Plans, device.Default())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, clients)
	var serialStats crossbar.Stats
	for i, row := range rows {
		preds, st, err := ref.InferBatchStats(tensor.FromSlice(row, 1, len(row)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = preds[0]
		serialStats.Cycles += st.Cycles
		serialStats.NORs += st.NORs
		serialStats.Reads += st.Reads
		serialStats.Writes += st.Writes
		serialStats.EnergyJ += st.EnergyJ
	}

	reg := NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{Batcher: BatcherConfig{
		MaxBatch: 8, MaxDelay: 20 * time.Millisecond, QueueDepth: clients * 2,
	}})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	got := make([]int, clients)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, payload := postPredictSafe(ts.URL, predictRequest{Path: "hardware", Inputs: [][]float32{rows[i]}})
			if resp == nil {
				errCh <- fmt.Errorf("client %d: transport error", i)
				return
			}
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("client %d: status %d: %v", i, resp.StatusCode, payload)
				return
			}
			preds := payload["predictions"].([]any)
			got[i] = int(preds[0].(float64))
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("client %d predicted %d, serial inference says %d — batching changed an answer",
				i, got[i], want[i])
		}
	}

	// The micro-batcher must actually have coalesced under 48 concurrent
	// clients, and the folded substrate counters must be bit-identical to
	// the serial run over the same rows.
	ln, err := s.laneFor(m, PathHardware)
	if err != nil {
		t.Fatal(err)
	}
	st := ln.met.Snapshot(0)
	if st.Admitted != clients || st.Completed != clients {
		t.Fatalf("admitted %d completed %d, want %d", st.Admitted, st.Completed, clients)
	}
	if st.Batches >= clients {
		t.Fatalf("%d batches for %d concurrent clients — no coalescing", st.Batches, clients)
	}
	sub := ln.met.Substrate()
	if sub.NORs != serialStats.NORs || sub.Cycles != serialStats.Cycles ||
		sub.Reads != serialStats.Reads || sub.Writes != serialStats.Writes {
		t.Fatalf("served substrate counters %+v differ from serial %+v", sub, serialStats)
	}
}

// postPredictSafe is postPredict without the testing.T plumbing, usable
// from client goroutines.
func postPredictSafe(url string, body any) (*http.Response, map[string]any) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, nil
	}
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return resp, nil
	}
	return resp, payload
}

// Multi-row requests through the software path must match the reinterpreted
// model evaluated directly.
func TestServeSoftwarePathMatchesReinterpreted(t *testing.T) {
	m := syntheticModel(t, false)
	rows := testRows(10, m.InSize(), 13)
	flat := make([]float32, 0, 10*m.InSize())
	for _, row := range rows {
		flat = append(flat, row...)
	}
	want := m.re.Predict(tensor.FromSlice(flat, 10, m.InSize()))

	reg := NewRegistry()
	reg.Add(m)
	s := NewServer(reg, Config{Batcher: BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond}})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	// Model name omitted on purpose: a single-model registry is the default.
	resp, payload := postPredict(t, ts.URL, predictRequest{Inputs: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, payload)
	}
	preds := payload["predictions"].([]any)
	for i := range want {
		if int(preds[i].(float64)) != want[i] {
			t.Fatalf("row %d: served %v, reinterpreted model says %d", i, preds[i], want[i])
		}
	}
}

// The graceful-shutdown acceptance test: in-flight requests complete while
// new ones are refused.
func TestServerGracefulShutdown(t *testing.T) {
	m := syntheticModel(t, false)
	reg := NewRegistry()
	reg.Add(m)
	s := NewServer(reg, Config{Batcher: BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, QueueDepth: 8}})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Warm the lane, then wrap its backend so the next batch blocks until
	// released — an inference caught mid-flight by the shutdown.
	ln, err := s.laneFor(m, PathSoftware)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	orig := ln.b.infer
	ln.b.infer = func(rows [][]float32) ([]int, crossbar.Stats, error) {
		started <- struct{}{}
		<-release
		return orig(rows)
	}

	row := testRows(1, m.InSize(), 17)[0]
	type outcome struct {
		status int
		preds  []any
	}
	inflight := make(chan outcome, 1)
	go func() {
		resp, payload := postPredictSafe(ts.URL, predictRequest{Inputs: [][]float32{row}})
		o := outcome{}
		if resp != nil {
			o.status = resp.StatusCode
			if p, ok := payload["predictions"].([]any); ok {
				o.preds = p
			}
		}
		inflight <- o
	}()
	<-started // the request is now inside the backend

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitDraining(t, s)

	// New requests must be refused with 503 while the drain is in progress.
	resp, _ := postPredictSafe(ts.URL, predictRequest{Inputs: [][]float32{row}})
	if resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %+v, want 503", resp)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 during drain must carry Retry-After")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain returned %d, want 503", hresp.StatusCode)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while an inference was still in flight")
	default:
	}

	// Releasing the backend lets the in-flight request complete with 200.
	close(release)
	o := <-inflight
	if o.status != http.StatusOK || len(o.preds) != 1 {
		t.Fatalf("in-flight request finished with %+v, want 200 + one prediction", o)
	}
	<-closed
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestServerValidationAndObservability(t *testing.T) {
	m := syntheticModel(t, false) // no hardware path
	reg := NewRegistry()
	reg.Add(m)
	s := NewServer(reg, Config{Batcher: BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond}})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	row := testRows(1, m.InSize(), 19)[0]

	// Wrong model name: 404 naming what is served.
	resp, payload := postPredict(t, ts.URL, predictRequest{Model: "nope", Inputs: [][]float32{row}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d %v", resp.StatusCode, payload)
	}

	// Wrong feature count: 400 naming both sizes.
	resp, payload = postPredict(t, ts.URL, predictRequest{Inputs: [][]float32{{1, 2}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short row: %d %v", resp.StatusCode, payload)
	}

	// Hardware path that was never lowered: 400.
	resp, payload = postPredict(t, ts.URL, predictRequest{Path: "hardware", Inputs: [][]float32{row}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing hardware path: %d %v", resp.StatusCode, payload)
	}

	// Unknown path: 400.
	resp, _ = postPredict(t, ts.URL, predictRequest{Path: "quantum", Inputs: [][]float32{row}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown path: %d", resp.StatusCode)
	}

	// Empty inputs: 400.
	resp, _ = postPredict(t, ts.URL, predictRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty inputs: %d", resp.StatusCode)
	}

	// GET on predict: 405.
	gresp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: %d", gresp.StatusCode)
	}

	// A valid request, then the observability surface.
	resp, payload = postPredict(t, ts.URL, predictRequest{Inputs: [][]float32{row}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid request: %d %v", resp.StatusCode, payload)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", hresp.StatusCode, health)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		UptimeS float64              `json:"uptime_s"`
		Lanes   map[string]LaneStats `json:"lanes"`
	}
	json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	lane, ok := stats.Lanes["tiny/software"]
	if !ok {
		t.Fatalf("stats missing the software lane: %v", stats.Lanes)
	}
	if lane.Completed != 1 || lane.Batches != 1 {
		t.Fatalf("lane stats %+v, want one completed request in one batch", lane)
	}
	if lane.LatencyMS.P50 <= 0 {
		t.Fatalf("latency quantiles empty: %+v", lane.LatencyMS)
	}

	mresp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var ml struct {
		Models []modelInfo `json:"models"`
	}
	json.NewDecoder(mresp.Body).Decode(&ml)
	mresp.Body.Close()
	if len(ml.Models) != 1 || ml.Models[0].Name != "tiny" || ml.Models[0].InSize != 12 {
		t.Fatalf("models payload %+v", ml)
	}
	if len(ml.Models[0].Paths) != 1 || ml.Models[0].Paths[0] != "software" {
		t.Fatalf("paths %v, want software only", ml.Models[0].Paths)
	}
}

// Artifact round trip: a model saved by the composer serves identically
// after LoadModelFile.
func TestLoadModelFileServesSavedArtifact(t *testing.T) {
	m := syntheticModel(t, false)
	dir := t.TempDir()
	path := dir + "/tiny.rapidnn"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Composed.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile("", path, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "tiny" {
		t.Fatalf("default name %q, want file base name", loaded.Name)
	}
	rows := testRows(6, m.InSize(), 23)
	for _, row := range rows {
		fnA, _ := m.inferFn(PathSoftware)
		fnB, _ := loaded.inferFn(PathSoftware)
		pa, _, _ := fnA([][]float32{row})
		pb, _, _ := fnB([][]float32{row})
		if pa[0] != pb[0] {
			t.Fatalf("saved artifact predicts %d, original %d", pb[0], pa[0])
		}
	}
}
