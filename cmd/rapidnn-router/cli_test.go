package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/composer"
	"repro/internal/fleet/rollout"
	"repro/internal/nn"
)

// buildBinary compiles one of the repo's commands into a temp dir.
func buildBinary(t *testing.T, pkg, name string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), name)
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// proc is one spawned backend/router process under test.
type proc struct {
	cmd  *exec.Cmd
	log  *bytes.Buffer
	addr string
	dead bool
}

func (p *proc) kill() {
	if p == nil || p.dead {
		return
	}
	p.dead = true
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// start launches a binary with -addr 127.0.0.1:0 and waits for its
// addr-file.
func start(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	full := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	p := &proc{cmd: exec.Command(bin, full...), log: &bytes.Buffer{}}
	p.cmd.Stdout, p.cmd.Stderr = p.log, p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.kill)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.addr = "http://" + string(b)
			return p
		}
		if time.Now().After(deadline) {
			p.kill()
			t.Fatalf("%s never wrote its address file\nlog:\n%s", bin, p.log.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// makeComposed builds a small valid model with embedded canaries.
func makeComposed(t *testing.T, seed int64) *composer.Composed {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork("cli").
		Add(nn.NewDense("fc1", 12, 10, nn.ReLU{}, rng)).
		Add(nn.NewDense("out", 10, 4, nn.Identity{}, rng))
	c := &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 8, 8, 16)}
	c.SynthesizeCanaries(8, 1)
	return c
}

func writeFlat(t *testing.T, path string, c *composer.Composed) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
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

func predictVia(router, tenant string) (int, error) {
	body, _ := json.Marshal(map[string]any{
		"model": "m", "tenant": tenant, "inputs": [][]float32{make([]float32, 12)},
	})
	resp, err := http.Post(router+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// waitHealthy polls the router until n replicas are in the ring.
func waitHealthy(t *testing.T, router string, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(router + "/fleet/replicas")
		if err == nil {
			var got struct {
				Replicas []struct {
					State string `json:"state"`
				} `json:"replicas"`
			}
			json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			healthy := 0
			for _, r := range got.Replicas {
				if r.State == "healthy" {
					healthy++
				}
			}
			if healthy == n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never saw %d healthy replicas", n)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// The fleet survives a replica death under open-loop load: every response is
// either a success or an explicit shed (503/429) — never a raw 5xx error —
// and after the pool notices, the survivor owns the whole ring.
func TestRouterCLIFailoverUnderLoad(t *testing.T) {
	routerBin := buildBinary(t, ".", "rapidnn-router")
	serveBin := buildBinary(t, "repro/cmd/rapidnn-serve", "rapidnn-serve")
	dir := t.TempDir()
	artifact := filepath.Join(dir, "v1.rapidnn")
	writeFlat(t, artifact, makeComposed(t, 1))

	b1 := start(t, serveBin, "-model", "m="+artifact, "-replica-id", "r1")
	b2 := start(t, serveBin, "-model", "m="+artifact, "-replica-id", "r2")
	rt := start(t, routerBin,
		"-replica", b1.addr, "-replica", b2.addr,
		"-poll-interval", "50ms", "-down-after", "2", "-retries", "2")
	waitHealthy(t, rt.addr, 2)

	const total = 240
	const killAt = 60
	type result struct {
		code int
		err  error
	}
	results := make([]result, total)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		// Open loop at 5ms: arrivals do not wait for completions, so the
		// kill lands while requests are genuinely in flight.
		if wait := start.Add(time.Duration(i) * 5 * time.Millisecond).Sub(time.Now()); wait > 0 {
			time.Sleep(wait)
		}
		if i == killAt {
			b1.kill()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, err := predictVia(rt.addr, fmt.Sprintf("tenant-%d", i%8))
			results[i] = result{code, err}
		}(i)
	}
	wg.Wait()

	ok, shed, transport := 0, 0, 0
	for i, r := range results {
		switch {
		case r.err != nil:
			// The router itself refused the connection — it should never
			// die, so any transport error fails the test.
			t.Fatalf("request %d: transport error through router: %v", i, r.err)
		case r.code == http.StatusOK:
			ok++
		case r.code == http.StatusServiceUnavailable || r.code == http.StatusTooManyRequests:
			shed++
		default:
			transport++
			t.Errorf("request %d: HTTP %d — a replica death leaked a raw error through the router", i, r.code)
		}
	}
	if ok == 0 {
		t.Fatalf("no request succeeded (%d shed)", shed)
	}
	// The tail of the run happens strictly after the kill; those requests
	// must have been re-ringed onto the survivor.
	tailOK := 0
	for _, r := range results[total-40:] {
		if r.code == http.StatusOK {
			tailOK++
		}
	}
	if tailOK == 0 {
		t.Fatalf("no successes after the replica death: ring never redistributed (ok=%d shed=%d)", ok, shed)
	}
	waitHealthy(t, rt.addr, 1)
	t.Logf("load: %d ok, %d shed, %d raw errors; %d/%d tail successes", ok, shed, transport, tailOK, 40)
}

// Canary-then-promote through the real binaries: a good version promotes
// fleet-wide; a corrupt and a stale version are both caught by the fleet
// canary gate and rolled back, leaving every replica serving the promoted
// version and still answering predicts.
func TestRouterCLICanaryRolloutGatesAndRollsBack(t *testing.T) {
	routerBin := buildBinary(t, ".", "rapidnn-router")
	serveBin := buildBinary(t, "repro/cmd/rapidnn-serve", "rapidnn-serve")

	regDir := t.TempDir()
	reg, err := rollout.NewRegistry(regDir)
	if err != nil {
		t.Fatal(err)
	}
	writeFlat(t, reg.Path("m", "v1"), makeComposed(t, 1))
	writeFlat(t, reg.Path("m", "v2"), makeComposed(t, 2))
	if err := reg.SetCurrent("m", "v1"); err != nil {
		t.Fatal(err)
	}

	// Router first, then the backends join via -register: the registration
	// path is part of what this test proves.
	rt := start(t, routerBin,
		"-registry", regDir,
		"-poll-interval", "50ms",
		"-canary-fraction", "0.5", "-observe-window", "100ms")
	start(t, serveBin, "-model", "m="+reg.Path("m", "v1"), "-register", rt.addr)
	start(t, serveBin, "-model", "m="+reg.Path("m", "v1"), "-register", rt.addr)
	waitHealthy(t, rt.addr, 2)

	rollTo := func(version string) (int, rollout.Status) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"model": "m", "version": version})
		resp, err := http.Post(rt.addr+"/fleet/rollout", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var st rollout.Status
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatalf("parsing rollout response: %v\n%s", err, data)
			}
		} else {
			var wrapped struct {
				Status rollout.Status `json:"status"`
			}
			if err := json.Unmarshal(data, &wrapped); err != nil {
				t.Fatalf("parsing rollout error response: %v\n%s", err, data)
			}
			st = wrapped.Status
		}
		return resp.StatusCode, st
	}

	fleetVersions := func() map[string]string {
		t.Helper()
		resp, err := http.Get(rt.addr + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got struct {
			Models []struct {
				Name     string `json:"name"`
				Versions map[string]struct {
					Version string `json:"version"`
				} `json:"versions"`
			} `json:"models"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, m := range got.Models {
			if m.Name != "m" {
				continue
			}
			for url, v := range m.Versions {
				out[url] = v.Version
			}
		}
		return out
	}

	// waitVersions polls until every replica's cached version (refreshed by
	// the router's health probes) converges on want.
	waitVersions := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			vs := fleetVersions()
			converged := len(vs) == 2
			for _, v := range vs {
				converged = converged && v == want
			}
			if converged {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("fleet never converged on %s: %v", want, vs)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	// Good rollout: v2 promotes to the whole fleet.
	code, st := rollTo("v2")
	if code != http.StatusOK || st.Phase != rollout.PhaseDone {
		t.Fatalf("rollout of v2: HTTP %d, phase %s\nevents:\n%s", code, st.Phase, st.Events)
	}
	waitVersions("v2")

	// Corrupt rollout: v3 does not even load. The canary's all-or-nothing
	// scrub keeps it serving v2 and the controller reports failure.
	if err := os.WriteFile(reg.Path("m", "v3"), []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, st = rollTo("v3")
	if code != http.StatusConflict || st.Phase != rollout.PhaseFailed {
		t.Fatalf("rollout of corrupt v3: HTTP %d, phase %s, want 409/failed", code, st.Phase)
	}

	// Stale rollout: v4 loads cleanly but its golden predictions are wrong —
	// only the canary self-test can catch that, and it must trigger a
	// rollback to v2.
	stale := makeComposed(t, 3)
	for i := range stale.Canaries {
		stale.Canaries[i].Pred = (stale.Canaries[i].Pred + 1) % stale.Net.OutSize()
	}
	writeFlat(t, reg.Path("m", "v4"), stale)
	code, st = rollTo("v4")
	if code != http.StatusConflict || st.Phase != rollout.PhaseFailed {
		t.Fatalf("rollout of stale v4: HTTP %d, phase %s, want 409/failed", code, st.Phase)
	}

	waitVersions("v2")
	if cur, _ := reg.Current("m"); cur != "v2" {
		t.Fatalf("manifest current = %s, want v2", cur)
	}
	// No healthy replica was harmed: the whole fleet still answers.
	for i := 0; i < 8; i++ {
		code, err := predictVia(rt.addr, fmt.Sprintf("t%d", i))
		if err != nil || code != http.StatusOK {
			t.Fatalf("post-rollback predict %d: HTTP %d, %v", i, code, err)
		}
	}
}

// scrapeCounter sums every series of a metric from a /metrics endpoint
// whose labels include each of labels (rendered as `key="value"`);
// (0, false) when no such series exists.
func scrapeCounter(t *testing.T, base, name string, labels ...string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sum, found := 0.0, false
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') || !hasLabels(rest, labels) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable metric line %q: %v", line, err)
		}
		sum += v
		found = true
	}
	return sum, found
}

// hasLabels reports whether the label set that opens a metric line's rest
// contains every wanted label.
func hasLabels(rest string, want []string) bool {
	var set []string
	if rest[0] == '{' {
		set = strings.Split(rest[1:strings.IndexByte(rest, '}')], ",")
	}
	for _, l := range want {
		if !slices.Contains(set, l) {
			return false
		}
	}
	return true
}

// chaosFires reads a replica's /chaos admin endpoint and sums fire counts.
func chaosFires(t *testing.T, base string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/chaos")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Points []struct {
			Fires uint64 `json:"fires"`
		} `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var fires uint64
	for _, p := range st.Points {
		fires += p.Fires
	}
	return fires
}

// The resilience layer under deterministic fault injection, end to end
// through the real binaries: one replica is slow (latency failpoint), one is
// flaky (injected 500s). Closed-loop load through the router must see only
// successes and explicit sheds — never a raw backend error — with a bounded
// tail (hedging routes around the slow replica) and bounded attempt
// amplification (the retry budget caps retries+hedges as a fraction of
// primaries). A request whose deadline share is already spent when it
// reaches a replica is rejected at admission, not enqueued.
func TestRouterChaosSmoke(t *testing.T) {
	routerBin := buildBinary(t, ".", "rapidnn-router")
	serveBin := buildBinary(t, "repro/cmd/rapidnn-serve", "rapidnn-serve")
	dir := t.TempDir()
	artifact := filepath.Join(dir, "v1.rapidnn")
	writeFlat(t, artifact, makeComposed(t, 1))

	slow := start(t, serveBin, "-model", "m="+artifact, "-replica-id", "slow",
		"-chaos", "serve.predict=latency:150ms@0.5", "-chaos-seed", "7")
	flaky := start(t, serveBin, "-model", "m="+artifact, "-replica-id", "flaky",
		"-chaos", "serve.predict=http:500@0.3", "-chaos-seed", "11")
	rt := start(t, routerBin,
		"-replica", slow.addr, "-replica", flaky.addr,
		"-poll-interval", "50ms", "-retries", "2",
		"-retry-budget", "0.2", "-retry-budget-cap", "3",
		"-hedge-after", "50ms")
	waitHealthy(t, rt.addr, 2)

	const total = 200
	counts := map[int]int{}
	lats := make([]time.Duration, 0, total)
	for i := 0; i < total; i++ {
		// Closed loop: each arrival waits for the previous completion, so
		// attempt amplification is purely retry/hedge-driven.
		t0 := time.Now()
		code, err := predictVia(rt.addr, fmt.Sprintf("tenant-%d", i%16))
		if err != nil {
			t.Fatalf("request %d: transport error through router: %v", i, err)
		}
		lats = append(lats, time.Since(t0))
		counts[code]++
	}
	for code, n := range counts {
		switch code {
		case http.StatusOK, http.StatusServiceUnavailable, http.StatusTooManyRequests:
		default:
			t.Errorf("%d requests answered HTTP %d: injected faults leaked through the router", n, code)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded under chaos: %v", counts)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[int(0.99*float64(len(lats)-1))]
	if p99 > 1500*time.Millisecond {
		t.Errorf("p99 latency %v under chaos; hedging should bound the tail well below 1.5s", p99)
	}

	// Attempt amplification: every request launches one primary; retries and
	// hedges beyond that are funded by the budget (ratio 0.2, cap 3), so
	// total attempts <= total*(1+ratio) + cap.
	attempts, ok := scrapeCounter(t, rt.addr, "rapidnn_router_backend_attempts_total")
	if !ok {
		t.Fatal("router exports no rapidnn_router_backend_attempts_total")
	}
	if attempts < total {
		t.Errorf("only %.0f backend attempts for %d requests", attempts, total)
	}
	if max := float64(total)*1.2 + 3; attempts > max+0.5 {
		t.Errorf("attempt amplification: %.0f attempts for %d requests exceeds budget bound %.0f", attempts, total, max)
	}

	// Both failpoints actually fired: this run exercised real faults, not a
	// quiet fleet.
	if f := chaosFires(t, slow.addr); f == 0 {
		t.Error("slow replica's latency failpoint never fired")
	}
	if f := chaosFires(t, flaky.addr); f == 0 {
		t.Error("flaky replica's 500 failpoint never fired")
	}

	// Deadline probe: the router splits a 1ms budget across its candidates
	// and stamps each sub-millisecond share as 0, so every replica the probe
	// reaches finds it expired and must reject it at admission — shed with
	// a 503, never batched into the lane and never answered 200.
	probe503 := 0
	for i := 0; i < 10; i++ {
		body, _ := json.Marshal(map[string]any{
			"model": "m", "tenant": "probe", "inputs": [][]float32{make([]float32, 12)},
		})
		req, err := http.NewRequest(http.MethodPost, rt.addr+"/v1/predict", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Rapidnn-Deadline-Ms", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("deadline probe %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("deadline probe %d answered 200: a replica admitted an expired deadline share", i)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			probe503++
		}
	}
	if probe503 == 0 {
		t.Error("no deadline probe was shed with 503")
	}
	rejected := 0.0
	for _, replica := range []string{slow.addr, flaky.addr} {
		if v, ok := scrapeCounter(t, replica, "rapidnn_serve_deadline_rejected_total", `reason="expired"`); ok {
			rejected += v
		}
	}
	if rejected == 0 {
		t.Error(`no replica counted a reason="expired" deadline admission rejection`)
	}
	t.Logf("chaos smoke: statuses %v, p99 %v, %.0f attempts, %d/10 probes 503, %.0f expired-deadline rejections",
		counts, p99, attempts, probe503, rejected)
}
