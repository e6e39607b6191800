package fleet

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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/composer"
	"repro/internal/fleet/rollout"
	"repro/internal/nn"
	"repro/internal/serve"
)

// fakeBackend speaks just enough of the rapidnn-serve surface for pool
// membership tests: a flippable /healthz and a /metrics with a queue-depth
// gauge.
type fakeBackend struct {
	mu       sync.Mutex
	status   string
	depth    float64
	versions map[string]serve.VersionInfo
	ts       *httptest.Server
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{status: "ok", versions: map[string]serve.VersionInfo{
		"m": {Version: "v1", Format: composer.FormatFlat},
	}}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		status := f.status
		versions := f.versions
		f.mu.Unlock()
		code := http.StatusOK
		if status != "ok" {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]any{
			"status": status, "models": []string{"m"}, "versions": versions,
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		depth := f.depth
		f.mu.Unlock()
		fmt.Fprintf(w, "# HELP rapidnn_serve_queue_depth Current admission-queue occupancy.\n")
		fmt.Fprintf(w, "# TYPE rapidnn_serve_queue_depth gauge\n")
		fmt.Fprintf(w, "rapidnn_serve_queue_depth{lane=\"m/software\"} %g\n", depth/2)
		fmt.Fprintf(w, "rapidnn_serve_queue_depth{lane=\"m/hardware\"} %g\n", depth/2)
		fmt.Fprintf(w, "rapidnn_serve_queue_depth_total_not_this 999\n")
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeBackend) setStatus(s string) {
	f.mu.Lock()
	f.status = s
	f.mu.Unlock()
}

func (f *fakeBackend) setDepth(d float64) {
	f.mu.Lock()
	f.depth = d
	f.mu.Unlock()
}

func testPool() *Pool {
	return NewPool(PoolConfig{PollInterval: 10 * time.Millisecond, DownAfter: 2})
}

func TestPoolMembershipFollowsHealth(t *testing.T) {
	b1, b2 := newFakeBackend(t), newFakeBackend(t)
	p := testPool()
	if info := p.Add(b1.ts.URL); info.State != StateHealthy {
		t.Fatalf("b1 state after Add = %s, want healthy (err %q)", info.State, info.LastError)
	}
	p.Add(b2.ts.URL)
	if got := p.Replicas(); len(got) != 2 {
		t.Fatalf("healthy replicas = %v, want both", got)
	}

	// Degraded replicas are ejected but kept under observation...
	b1.setStatus("degraded")
	p.PollOnce()
	if got := p.Replicas(); len(got) != 1 || got[0] != b2.ts.URL {
		t.Fatalf("after degrade, ring = %v, want [%s]", got, b2.ts.URL)
	}
	snap := p.Snapshot()
	if snap[0].State != StateDegraded && snap[1].State != StateDegraded {
		t.Fatalf("no replica marked degraded: %+v", snap)
	}

	// ...and re-admitted the moment they recover.
	b1.setStatus("ok")
	p.PollOnce()
	if got := p.Replicas(); len(got) != 2 {
		t.Fatalf("after recovery, ring = %v, want both", got)
	}

	// A dead replica survives one missed poll (blip grace), then goes down.
	b2.ts.Close()
	p.PollOnce()
	if got := p.Replicas(); len(got) != 2 {
		t.Fatalf("one missed poll already ejected the replica: %v", got)
	}
	p.PollOnce()
	if got := p.Replicas(); len(got) != 1 || got[0] != b1.ts.URL {
		t.Fatalf("after death, ring = %v, want [%s]", got, b1.ts.URL)
	}
}

func TestPoolScrapesQueueDepth(t *testing.T) {
	b := newFakeBackend(t)
	b.setDepth(12)
	p := testPool()
	p.Add(b.ts.URL)
	if d := p.QueueDepth(b.ts.URL); d != 12 {
		t.Fatalf("scraped depth = %v, want 12 (summed across lanes)", d)
	}
}

// A replica whose /healthz fails — garbage or a hang past the probe
// client's timeout — must not be scraped: the depth would be thrown away,
// and for a hung replica the scrape would cost PollOnce a second timeout
// before it reached the next replica.
func TestPoolSkipsMetricsScrapeWhenHealthzFails(t *testing.T) {
	for _, tc := range []struct {
		name    string
		healthz http.HandlerFunc
	}{
		{"garbage", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "not json") }},
		{"hang", func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var scrapes atomic.Int64
			mux := http.NewServeMux()
			mux.HandleFunc("/healthz", tc.healthz)
			mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) { scrapes.Add(1) })
			ts := httptest.NewServer(mux)
			t.Cleanup(ts.Close)
			p := NewPool(PoolConfig{Client: &http.Client{Timeout: 50 * time.Millisecond}})
			if info := p.Add(ts.URL); info.State != StateDown {
				t.Fatalf("state after a failed probe = %s, want down", info.State)
			}
			p.PollOnce()
			if n := scrapes.Load(); n != 0 {
				t.Fatalf("/metrics scraped %d times after failed /healthz probes, want 0", n)
			}
		})
	}
}

func TestSumMetricNameBoundary(t *testing.T) {
	exp := "# HELP x\nfoo{a=\"b\"} 3\nfoo 4\nfoo_total 100\nfoobar 200\nfoo{c=\"d\"} 5\n"
	got, ok := sumMetric(exp, "foo")
	if !ok || got != 12 {
		t.Fatalf("sumMetric = %v, %v; want 12 (3+4+5, excluding foo_total and foobar)", got, ok)
	}
	if _, ok := sumMetric(exp, "absent"); ok {
		t.Fatal("sumMetric found an absent metric")
	}
}

// --- real-backend fixtures ---

// synthComposed builds a small valid model with embedded canaries.
func synthComposed(t *testing.T, seed int64) *composer.Composed {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork("fleettest").
		Add(nn.NewDense("fc1", 12, 10, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 10, 4, nn.Identity{}, rng))
	c := &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 8, 8, 16)}
	c.SynthesizeCanaries(8, 1)
	return c
}

// newServeBackend starts a real serve.Server with one in-memory model "m",
// wrapped so the test can count the predicts each backend answered.
func newServeBackend(t *testing.T, seed int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	m, err := serve.NewModel("m", synthComposed(t, seed), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(reg, serve.Config{})
	t.Cleanup(srv.Close)
	var predicts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/predict" {
			predicts.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &predicts
}

func predictBody(tenant string) []byte {
	rows := make([][]float32, 2)
	for i := range rows {
		rows[i] = make([]float32, 12)
		for j := range rows[i] {
			rows[i][j] = float32(i+j) / 12
		}
	}
	b, _ := json.Marshal(map[string]any{"model": "m", "tenant": tenant, "inputs": rows})
	return b
}

func postPredict(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestRouterRoutesConsistentlyAndSpreadsTenants(t *testing.T) {
	ts1, n1 := newServeBackend(t, 1)
	ts2, n2 := newServeBackend(t, 2)
	p := testPool()
	p.Add(ts1.URL)
	p.Add(ts2.URL)
	rt := httptest.NewServer(NewRouter(RouterConfig{Pool: p}))
	defer rt.Close()

	// One tenant's traffic for one model pins to one replica.
	for i := 0; i < 6; i++ {
		resp, body := postPredict(t, rt.URL, predictBody("tenant-a"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		var pr struct {
			Predictions []int `json:"predictions"`
		}
		if err := json.Unmarshal(body, &pr); err != nil || len(pr.Predictions) != 2 {
			t.Fatalf("predict %d: bad body %s", i, body)
		}
	}
	if a, b := n1.Load(), n2.Load(); !(a == 6 && b == 0) && !(a == 0 && b == 6) {
		t.Fatalf("one tenant's requests split %d/%d across replicas, want all on one", a, b)
	}

	// Many tenants spread: with 32 distinct keys on a 2-member ring, both
	// replicas must see traffic.
	for i := 0; i < 32; i++ {
		resp, body := postPredict(t, rt.URL, predictBody(fmt.Sprintf("tenant-%d", i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant-%d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	if n1.Load() == 0 || n2.Load() == 0 {
		t.Fatalf("tenant spread left a replica idle: %d/%d", n1.Load(), n2.Load())
	}
}

func TestRouterFailsOverToNextRingMember(t *testing.T) {
	ts1, _ := newServeBackend(t, 1)
	ts2, _ := newServeBackend(t, 2)
	p := testPool()
	p.Add(ts1.URL)
	p.Add(ts2.URL)
	rt := httptest.NewServer(NewRouter(RouterConfig{Pool: p, Retries: 2}))
	defer rt.Close()

	// Kill the ring owner for this key WITHOUT letting the pool poll: the
	// router must discover the death on the predict path and walk the ring.
	owner := p.Route("tenant-a|m", 1)[0]
	if owner == ts1.URL {
		ts1.Close()
	} else {
		ts2.Close()
	}
	resp, body := postPredict(t, rt.URL, predictBody("tenant-a"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover predict: HTTP %d: %s", resp.StatusCode, body)
	}
}

func TestRouterTenantQuota(t *testing.T) {
	ts1, _ := newServeBackend(t, 1)
	p := testPool()
	p.Add(ts1.URL)
	rt := httptest.NewServer(NewRouter(RouterConfig{Pool: p, TenantRate: 0.001, TenantBurst: 2}))
	defer rt.Close()

	for i := 0; i < 2; i++ {
		if resp, body := postPredict(t, rt.URL, predictBody("greedy")); resp.StatusCode != http.StatusOK {
			t.Fatalf("within-burst predict %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, _ := postPredict(t, rt.URL, predictBody("greedy"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota predict: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	// A different tenant is untouched by the greedy one's exhaustion.
	if resp, body := postPredict(t, rt.URL, predictBody("polite")); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: HTTP %d: %s", resp.StatusCode, body)
	}
}

func TestRouterShedsOnScrapedQueueDepth(t *testing.T) {
	b := newFakeBackend(t)
	b.setDepth(50)
	p := testPool()
	p.Add(b.ts.URL)
	rt := httptest.NewServer(NewRouter(RouterConfig{Pool: p, MaxQueueDepth: 10}))
	defer rt.Close()

	resp, body := postPredict(t, rt.URL, predictBody("t"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict to saturated fleet: HTTP %d: %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("depth shed carries no Retry-After")
	}
	// Drained replica: admitted again.
	b.setDepth(0)
	p.PollOnce()
	resp, _ = postPredict(t, rt.URL, predictBody("t"))
	if resp.StatusCode == http.StatusServiceUnavailable {
		t.Fatal("router still shedding after the queue drained")
	}
}

func TestRouterNoReplicas(t *testing.T) {
	rt := httptest.NewServer(NewRouter(RouterConfig{Pool: testPool()}))
	defer rt.Close()
	resp, _ := postPredict(t, rt.URL, predictBody("t"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict with empty fleet: HTTP %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(rt.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router healthz with empty fleet: HTTP %d, want 503", hz.StatusCode)
	}
}

func TestRouterRegisterAndReplicas(t *testing.T) {
	b := newFakeBackend(t)
	rt := httptest.NewServer(NewRouter(RouterConfig{Pool: testPool()}))
	defer rt.Close()

	reg, _ := json.Marshal(map[string]string{"url": b.ts.URL})
	resp, err := http.Post(rt.URL+"/fleet/register", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: HTTP %d", resp.StatusCode)
	}
	list, err := http.Get(rt.URL + "/fleet/replicas")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var got struct {
		Replicas []ReplicaInfo `json:"replicas"`
	}
	if err := json.NewDecoder(list.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Replicas) != 1 || got.Replicas[0].State != StateHealthy || got.Replicas[0].URL != b.ts.URL {
		t.Fatalf("replicas after register = %+v", got.Replicas)
	}
}

// writeRegistryArtifact writes a model artifact directly into a registry's
// directory layout — the path a corrupt or stale file takes in real life
// (a bad disk write bypasses the push gate; the fleet canary must catch it).
func writeRegistryArtifact(t *testing.T, reg *rollout.Registry, model, version string, c *composer.Composed) {
	t.Helper()
	path := reg.Path(model, version)
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

// newDiskBackend starts a real serve.Server with model "m" loaded from an
// artifact file.
func newDiskBackend(t *testing.T, path string) *httptest.Server {
	t.Helper()
	m, err := serve.LoadModelFile("m", path, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(reg, serve.Config{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func fleetVersions(t *testing.T, p *Pool, model string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, rep := range p.Snapshot() {
		v, err := p.ServingVersion(rep.URL, model)
		if err != nil {
			t.Fatalf("ServingVersion(%s): %v", rep.URL, err)
		}
		out[rep.URL] = v
	}
	return out
}

func TestFleetCanaryThenPromoteAndRollback(t *testing.T) {
	reg, err := rollout.NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// v1 and v2 are good versions of the same shape; both land in the
	// registry through the layout (content validity is not what this test
	// gates on — the fleet-level protocol is).
	writeRegistryArtifact(t, reg, "m", "v1", synthComposed(t, 1))
	writeRegistryArtifact(t, reg, "m", "v2", synthComposed(t, 2))
	if err := reg.SetCurrent("m", "v1"); err != nil {
		t.Fatal(err)
	}

	ts1 := newDiskBackend(t, reg.Path("m", "v1"))
	ts2 := newDiskBackend(t, reg.Path("m", "v1"))
	p := testPool()
	p.Add(ts1.URL)
	p.Add(ts2.URL)
	ctl := rollout.NewController(reg, p, rollout.Config{
		CanaryFraction: 0.5, ObserveWindow: 30 * time.Millisecond,
	})
	rt := httptest.NewServer(NewRouter(RouterConfig{Pool: p, Controller: ctl, Registry: reg}))
	defer rt.Close()

	post := func(model, version string) (*http.Response, []byte) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"model": model, "version": version})
		resp, err := http.Post(rt.URL+"/fleet/rollout", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, data
	}

	// Good rollout: canary on one replica, then promoted fleet-wide.
	resp, body := post("m", "v2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollout of v2: HTTP %d: %s", resp.StatusCode, body)
	}
	var st rollout.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Phase != rollout.PhaseDone {
		t.Fatalf("rollout phase = %s: %s", st.Phase, body)
	}
	for url, v := range fleetVersions(t, p, "m") {
		if v != "v2" {
			t.Fatalf("replica %s serving %s after promotion, want v2", url, v)
		}
	}
	if cur, _ := reg.Current("m"); cur != "v2" {
		t.Fatalf("manifest current = %s, want v2", cur)
	}

	// Stale rollout: v3 loads cleanly but its embedded golden predictions
	// are wrong — the canary's self-test must catch it fleet-side and the
	// controller must roll the canary back, leaving the fleet on v2.
	stale := synthComposed(t, 3)
	for i := range stale.Canaries {
		stale.Canaries[i].Pred = (stale.Canaries[i].Pred + 1) % stale.Net.OutSize()
	}
	writeRegistryArtifact(t, reg, "m", "v3", stale)
	resp, body = post("m", "v3")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rollout of stale v3: HTTP %d: %s, want 409", resp.StatusCode, body)
	}
	for url, v := range fleetVersions(t, p, "m") {
		if v != "v2" {
			t.Fatalf("replica %s serving %s after failed rollout, want rolled back to v2", url, v)
		}
	}
	if cur, _ := reg.Current("m"); cur != "v2" {
		t.Fatalf("manifest current = %s after failed rollout, want v2", cur)
	}
	// Every replica must still answer predicts — the bad version never took
	// a healthy replica out of rotation.
	for i := 0; i < 8; i++ {
		resp, pbody := postPredict(t, rt.URL, predictBody(fmt.Sprintf("t%d", i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-rollback predict: HTTP %d: %s", resp.StatusCode, pbody)
		}
	}

	// Corrupt rollout: v4 does not even load; the all-or-nothing scrub
	// leaves the canary serving v2 and the controller reports failure.
	if err := os.WriteFile(reg.Path("m", "v4"), []byte("RAPIDNN2 but not really"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body = post("m", "v4")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rollout of corrupt v4: HTTP %d: %s, want 409", resp.StatusCode, body)
	}
	for url, v := range fleetVersions(t, p, "m") {
		if v != "v2" {
			t.Fatalf("replica %s serving %s after corrupt rollout, want v2", url, v)
		}
	}

	// The status endpoint reports the last (failed) rollout.
	gr, err := http.Get(rt.URL + "/fleet/rollout?model=m")
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Body.Close()
	if err := json.NewDecoder(gr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Phase != rollout.PhaseFailed || st.Version != "v4" {
		t.Fatalf("last rollout status = %+v, want failed v4", st)
	}
}
