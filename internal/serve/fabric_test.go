package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/nn"
)

// Tests for the fleet-facing serving surface: artifact version identity,
// version-aware scrub (hot swap), per-tenant admission quotas, and the
// dynamic Retry-After derivation.

// TestRetryAfterSecondsBounds pins the contract the satellite task asks for:
// the hint is depth/drain seconds, never below 1, never above 30, and the
// unknown-rate fallback is the optimistic minimum.
func TestRetryAfterSecondsBounds(t *testing.T) {
	cases := []struct {
		depth int
		rate  float64
		want  int
	}{
		{0, 100, 1},     // empty queue: minimum
		{-3, 100, 1},    // defensive: negative depth clamps
		{50, 0, 1},      // unknown rate: minimum
		{50, -2, 1},     // defensive: negative rate clamps
		{50, 100, 1},    // drains in 0.5s: rounds up to the 1s floor
		{200, 10, 20},   // 20s drain: passed through
		{10_000, 1, 30}, // hours of drain: capped at 30
		{1, 0.0001, 30}, // tiny rate: capped, no overflow
		{256, 256, 1},   // exactly one second
		{257, 256, 2},   // just past one second: ceil
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.depth, c.rate); got != c.want {
			t.Errorf("RetryAfterSeconds(%d, %g) = %d, want %d", c.depth, c.rate, got, c.want)
		}
	}
	// The bounds hold for arbitrary inputs.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		got := RetryAfterSeconds(rng.Intn(1<<20)-10, rng.Float64()*1000-1)
		if got < 1 || got > 30 {
			t.Fatalf("RetryAfterSeconds escaped [1,30]: %d", got)
		}
	}
}

func TestDrainRateEstimator(t *testing.T) {
	m := NewMetrics()
	t0 := time.Now()
	if got := m.DrainRate(t0); got != 0 {
		t.Fatalf("priming call returned %v, want 0", got)
	}
	// 50 completions over 1s: first real sample blends with the zero prior.
	for i := 0; i < 50; i++ {
		m.observeDone(time.Millisecond)
	}
	r1 := m.DrainRate(t0.Add(time.Second))
	if r1 <= 0 || r1 > 50 {
		t.Fatalf("first sample rate %v, want in (0, 50]", r1)
	}
	// Sustained 50/s converges toward 50 from below.
	for i := 0; i < 50; i++ {
		m.observeDone(time.Millisecond)
	}
	r2 := m.DrainRate(t0.Add(2 * time.Second))
	if r2 <= r1 {
		t.Fatalf("sustained rate did not rise: %v -> %v", r1, r2)
	}
	// Calls inside the minimum sampling interval reuse the estimate.
	if r3 := m.DrainRate(t0.Add(2*time.Second + time.Millisecond)); r3 != r2 {
		t.Fatalf("sub-interval call moved the estimate: %v -> %v", r2, r3)
	}
}

// TestQueueFullShedsWithBoundedRetryAfter plants a deliberately slow lane
// (30ms per 1-row batch, 2-deep queue) into a live server and floods it:
// every 503 must carry a parseable Retry-After inside the pinned bounds.
func TestQueueFullShedsWithBoundedRetryAfter(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add(syntheticModel(t, false)); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{Batcher: BatcherConfig{MaxBatch: 1, QueueDepth: 2}})
	defer s.Close()
	// Pre-create the lane with a slow backend so the queue demonstrably
	// fills; the test lives in package serve exactly for this.
	slow := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		time.Sleep(30 * time.Millisecond)
		return make([]int, len(rows)), crossbar.Stats{}, nil
	}
	met := NewMetricsIn(s.obs, "tiny/software")
	s.mu.Lock()
	s.lanes["tiny/software"] = &lane{
		b:   NewBatcher(BatcherConfig{MaxBatch: 1, QueueDepth: 2}, slow, met),
		met: met,
	}
	s.mu.Unlock()
	ts := httptest.NewServer(s)
	defer ts.Close()

	rows := testRows(1, 12, 3)
	var sheds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"model": "tiny", "inputs": rows})
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode == http.StatusServiceUnavailable {
				sheds.Add(1)
				ra := resp.Header.Get("Retry-After")
				secs, err := strconv.Atoi(ra)
				if err != nil {
					t.Errorf("503 with non-integer Retry-After %q", ra)
				} else if secs < 1 || secs > 30 {
					t.Errorf("Retry-After %d outside [1, 30]", secs)
				}
			}
		}()
	}
	wg.Wait()
	if sheds.Load() == 0 {
		t.Fatal("24 concurrent requests against a 2-deep 30ms lane shed nothing; test is vacuous")
	}
}

func TestTenantQuotaShedsOnlyOffender(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add(syntheticModel(t, false)); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{
		Batcher:    BatcherConfig{MaxBatch: 16, QueueDepth: 256},
		TenantRate: 1, TenantBurst: 3,
	})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	predictAs := func(tenant string) *http.Response {
		body, _ := json.Marshal(map[string]any{"model": "tiny", "inputs": testRows(1, 12, 3)})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp
	}

	// Burn noisy's burst, then one more: the 4th must shed with 429.
	var last *http.Response
	for i := 0; i < 4; i++ {
		last = predictAs("noisy")
	}
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant past quota answered %d, want 429", last.StatusCode)
	}
	if ra, err := strconv.Atoi(last.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("quota shed Retry-After = %q, want integer >= 1", last.Header.Get("Retry-After"))
	}
	// The polite tenant is untouched by noisy's exhaustion.
	if resp := predictAs("polite"); resp.StatusCode != http.StatusOK {
		t.Fatalf("unrelated tenant answered %d, want 200", resp.StatusCode)
	}
	// Body-field tenancy works too and anonymous traffic has its own bucket.
	body, _ := json.Marshal(map[string]any{"model": "tiny", "tenant": "bodytenant", "inputs": testRows(1, 12, 3)})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body-tenant request answered %d, want 200", resp.StatusCode)
	}

	// The decisions are observable: per-tenant dimensions on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`rapidnn_serve_tenant_requests_total{outcome="shed",tenant="noisy"}`,
		`rapidnn_serve_tenant_requests_total{outcome="admitted",tenant="noisy"} 3`,
		`rapidnn_serve_tenant_requests_total{outcome="admitted",tenant="polite"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTenantQuotaIsolatesLatency is the acceptance e2e at the process level:
// a noisy tenant driven far past its quota is shed while a polite tenant's
// error count stays zero and its latency percentiles stay flat.
func TestTenantQuotaIsolatesLatency(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add(syntheticModel(t, false)); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{
		Batcher:    BatcherConfig{MaxBatch: 16, QueueDepth: 256},
		TenantRate: 20, TenantBurst: 10,
	})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	rows := testRows(1, 12, 3)
	// Arrivals every 2ms for 400 requests = an ~0.8s run. Every 25th request
	// is the polite tenant: one every 50ms = 20 req/s, exactly its refill
	// rate, with the burst-10 bucket as headroom — it must never shed. The
	// other 384 requests (~480 req/s) all belong to the noisy tenant, ~24×
	// its quota.
	classOf := func(i int) string {
		if i%25 == 0 {
			return "polite"
		}
		return "noisy"
	}
	reports := bench.OpenLoopTagged(2*time.Millisecond, 400, classOf, func(i int) error {
		body, _ := json.Marshal(map[string]any{"model": "tiny", "inputs": rows})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, classOf(i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	})
	noisy, polite := reports["noisy"], reports["polite"]
	if noisy.Errors == 0 {
		t.Fatal("noisy tenant was never shed despite flooding its quota")
	}
	if polite.Errors > 0 {
		t.Fatalf("polite tenant shed %d of %d despite staying under quota", polite.Errors, polite.Requests)
	}
	if polite.P99 > 250*time.Millisecond {
		t.Fatalf("polite tenant p99 %v ballooned while noisy tenant was shed", polite.P99)
	}
}

// composeArtifacts writes two versions of the same model shape (different
// weights) plus the registry layout the rollout tests use.
func writeArtifact(t *testing.T, path string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork("vtest").
		Add(nn.NewDense("fc1", 12, 10, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 10, 4, nn.Identity{}, rng))
	c := &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 8, 8, 16)}
	c.SynthesizeCanaries(8, 1)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := c.SaveFlat(f); err != nil {
		t.Fatal(err)
	}
}

func TestVersionInfoAndHotSwap(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.rapidnn")
	v2 := filepath.Join(dir, "v2.rapidnn")
	writeArtifact(t, v1, 100)
	writeArtifact(t, v2, 200)

	m, err := LoadModelFile("vtest", v1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ver := m.Version()
	if ver.Version != "v1" || ver.Format != composer.FormatFlat || ver.Checksum == "" || ver.LoadedAt.IsZero() {
		t.Fatalf("v1 version info = %+v", ver)
	}

	reg := NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{Batcher: BatcherConfig{MaxBatch: 4}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// /healthz and /v1/models surface the version identity.
	var hz struct {
		Versions map[string]VersionInfo `json:"versions"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if got := hz.Versions["vtest"]; got.Version != "v1" || got.Format != composer.FormatFlat {
		t.Fatalf("/healthz versions = %+v", hz.Versions)
	}
	var ml struct {
		Models []struct {
			Name     string      `json:"name"`
			Artifact VersionInfo `json:"artifact"`
		} `json:"models"`
	}
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&ml)
	resp.Body.Close()
	if len(ml.Models) != 1 || ml.Models[0].Artifact.Version != "v1" {
		t.Fatalf("/v1/models artifact info = %+v", ml.Models)
	}

	// Hot-swap to v2 over HTTP; the scrub response reports the new identity.
	body, _ := json.Marshal(map[string]string{"model": "vtest", "artifact": v2})
	resp, err = http.Post(ts.URL+"/v1/scrub", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Degraded bool        `json:"degraded"`
		Artifact VersionInfo `json:"artifact"`
	}
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub-to-v2 answered %d", resp.StatusCode)
	}
	if sr.Degraded {
		t.Fatal("fresh v2 reported degraded")
	}
	if sr.Artifact.Version != "v2" || sr.Artifact.Format != composer.FormatFlat {
		t.Fatalf("post-swap identity = %+v, want v2/RAPIDNN2", sr.Artifact)
	}
	if sr.Artifact.Checksum == "" || sr.Artifact.Checksum == ver.Checksum {
		t.Fatalf("post-swap checksum %q, want a new one (v1 was %q)", sr.Artifact.Checksum, ver.Checksum)
	}
	if got := m.Version(); got.Version != "v2" {
		t.Fatalf("model still reports %+v after swap", got)
	}

	// The no-argument form stays backward compatible and now reloads v2.
	body, _ = json.Marshal(map[string]string{"model": "vtest"})
	resp, err = http.Post(ts.URL+"/v1/scrub", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sr.Artifact.Version != "v2" {
		t.Fatalf("plain scrub after swap: code %d, version %+v", resp.StatusCode, sr.Artifact)
	}

	// A corrupt swap target is refused and the serving state is untouched.
	bad := filepath.Join(dir, "v3.rapidnn")
	if err := os.WriteFile(bad, []byte("RAPIDNN2 but not really"), 0o644); err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(map[string]string{"model": "vtest", "artifact": bad})
	resp, err = http.Post(ts.URL+"/v1/scrub", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt swap target answered %d, want 500", resp.StatusCode)
	}
	if got := m.Version(); got.Version != "v2" {
		t.Fatalf("failed swap moved the serving state to %+v", got)
	}
	// And it still predicts.
	resp, payload := postPredict(t, ts.URL, map[string]any{"model": "vtest", "inputs": testRows(1, 12, 9)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after failed swap answered %d: %v", resp.StatusCode, payload)
	}
}

// TestReplicaCommonLabel checks the per-replica metric dimension: a server
// configured with a replica identity stamps it on every series.
func TestReplicaCommonLabel(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add(syntheticModel(t, false)); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{
		Batcher: BatcherConfig{MaxBatch: 4},
		Replica: "replica-7",
	})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	postPredict(t, ts.URL, map[string]any{"model": "tiny", "inputs": testRows(1, 12, 5)})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), `replica="replica-7"`) {
		t.Fatal("/metrics carries no replica dimension")
	}
	if !strings.Contains(string(text), `rapidnn_serve_requests_total{lane="tiny/software",outcome="completed",replica="replica-7"}`) {
		t.Fatalf("lane series not stamped with the replica label:\n%s", text)
	}
}
