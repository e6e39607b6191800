package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

func TestCheckDeadline(t *testing.T) {
	cases := []struct {
		name   string
		budget time.Duration
		depth  int
		drain  float64
		reject bool
		reason string
	}{
		{name: "expired", budget: 0, reject: true, reason: "expired"},
		{name: "negative", budget: -time.Second, reject: true, reason: "expired"},
		{name: "idle lane admits", budget: 10 * time.Millisecond, depth: 0, drain: 100},
		{name: "queue wait exceeds budget", budget: 100 * time.Millisecond, depth: 50, drain: 100, reject: true, reason: "queue_wait"},
		{name: "queue wait within budget", budget: time.Second, depth: 50, drain: 100},
		{name: "unprimed drain rate admits", budget: 100 * time.Millisecond, depth: 500, drain: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := checkDeadline(tc.budget, tc.depth, tc.drain)
			if v.reject != tc.reject || (tc.reject && v.reason != tc.reason) {
				t.Fatalf("checkDeadline = %+v, want reject=%v reason=%q", v, tc.reject, tc.reason)
			}
		})
	}
}

func TestParseFormatDeadline(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	if _, ok, err := ParseDeadline(req); ok || err != nil {
		t.Fatalf("absent header: ok=%v err=%v", ok, err)
	}
	req.Header.Set(DeadlineHeader, "250")
	if d, ok, err := ParseDeadline(req); !ok || err != nil || d != 250*time.Millisecond {
		t.Fatalf("250ms header parsed as %v/%v/%v", d, ok, err)
	}
	req.Header.Set(DeadlineHeader, "-5")
	if d, ok, err := ParseDeadline(req); !ok || err != nil || d >= 0 {
		t.Fatalf("negative header parsed as %v/%v/%v — should parse (admission rejects it)", d, ok, err)
	}
	req.Header.Set(DeadlineHeader, "soon")
	if _, _, err := ParseDeadline(req); err == nil {
		t.Fatal("malformed header parsed cleanly")
	}
	if got := FormatDeadline(1500 * time.Millisecond); got != "1500" {
		t.Fatalf("FormatDeadline(1.5s) = %q", got)
	}
	// Round down, never up: 900µs of budget is 0 whole milliseconds.
	if got := FormatDeadline(900 * time.Microsecond); got != "0" {
		t.Fatalf("FormatDeadline(900µs) = %q, want 0", got)
	}
	if got := FormatDeadline(-time.Second); got != "0" {
		t.Fatalf("FormatDeadline(-1s) = %q, want 0", got)
	}
}

// A spent budget must be refused at admission — 503 with Retry-After,
// counted in the registry — while a small budget on an idle lane is
// admitted: continuous batching dispatches it at once, so there is no batch
// floor for it to lose against. On a busy lane the batch already executing
// counts as work ahead, even with the queue empty.
func TestDeadlineAdmission(t *testing.T) {
	m := syntheticModel(t, false)
	reg := NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	const predictBody = `{"model":"tiny","inputs":[[0,0,0,0,0,0,0,0,0,0,0,0]]}`
	postTo := func(url, deadline string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/predict", strings.NewReader(predictBody))
		if deadline != "" {
			req.Header.Set(DeadlineHeader, deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	post := func(deadline string) *http.Response { return postTo(ts.URL, deadline) }
	scrapeFrom := func(url string) string {
		t.Helper()
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	scrape := func() string { return scrapeFrom(ts.URL) }

	// 1 ms is enough on an idle lane. The request may still time out on a
	// stalled host (504), so only the admission outcome is asserted.
	if resp := post("1"); resp.StatusCode == http.StatusServiceUnavailable {
		t.Fatal("1ms budget on an idle lane: 503 at admission, want it admitted")
	}
	if body := scrape(); strings.Contains(body, "rapidnn_serve_deadline_rejected_total") {
		t.Fatalf("1ms budget on an idle lane counted a deadline rejection:\n%s", body)
	}
	if resp := post("0"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired budget: status %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline rejection carried no Retry-After")
	}
	if resp := post("nonsense"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline header: status %d, want 400", resp.StatusCode)
	}
	if resp := post("5000"); resp.StatusCode != http.StatusOK {
		t.Fatalf("generous budget: status %d, want 200", resp.StatusCode)
	}
	if resp := post(""); resp.StatusCode != http.StatusOK {
		t.Fatalf("no deadline header: status %d, want 200", resp.StatusCode)
	}

	body := scrape()
	if want := `rapidnn_serve_deadline_rejected_total{reason="expired"} 1`; !strings.Contains(body, want) {
		t.Errorf("metrics missing %q", want)
	}
	if n := strings.Count(body, "rapidnn_serve_deadline_rejected_total{"); n != 1 {
		t.Errorf("%d deadline-rejection series, want only the expired one:\n%s", n, body)
	}

	// Busy lane. Prime the drain-rate estimate: the first budgeted request
	// samples the completed count, the second samples it again 150 ms and
	// one completion later, so the lane drains at most one row per 300 ms.
	busy := NewServer(reg, Config{})
	bts := httptest.NewServer(busy)
	defer bts.Close()
	defer busy.Close()
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(150 * time.Millisecond)
		}
		if resp := postTo(bts.URL, "5000"); resp.StatusCode != http.StatusOK {
			t.Fatalf("priming request %d: status %d, want 200", i, resp.StatusCode)
		}
	}
	// Hold the next batch in the backend: the queue is empty, one row runs.
	ln, err := busy.laneFor(m, PathSoftware)
	if err != nil {
		t.Fatal(err)
	}
	g := newGate()
	ln.b.infer = g.wrap(ln.b.infer)
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(bts.URL+"/v1/predict", "application/json", strings.NewReader(predictBody))
		if err != nil {
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-g.entered
	// 20 ms is far below one row's drain time: refused at once, while the
	// gate is still shut, rather than admitted to expire behind the batch.
	resp := postTo(bts.URL, "20")
	close(g.open)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("20ms budget behind an executing batch: status %d, want 503 at admission", resp.StatusCode)
	}
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", code)
	}
	if want := `rapidnn_serve_deadline_rejected_total{reason="queue_wait"} 1`; !strings.Contains(scrapeFrom(bts.URL), want) {
		t.Errorf("busy-lane metrics missing %q", want)
	}
}

// An armed chaos engine injects on the predict path and is driveable over
// /chaos; a server built without one exposes neither behavior.
func TestServeChaosWiring(t *testing.T) {
	m := syntheticModel(t, false)
	reg := NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	eng := chaos.New(5)
	rules, err := chaos.Parse("serve.predict=http:500@2n")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Set(rules); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{Chaos: eng})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	body := `{"model":"tiny","inputs":[[0,0,0,0,0,0,0,0,0,0,0,0]]}`
	post := func() int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(); got != http.StatusOK {
		t.Fatalf("call 1: %d, want the real answer", got)
	}
	if got := post(); got != http.StatusInternalServerError {
		t.Fatalf("call 2: %d, want the injected 500", got)
	}

	// The admin endpoint clears the fault at runtime.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/chaos", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i := 0; i < 4; i++ {
		if got := post(); got != http.StatusOK {
			t.Fatalf("post-clear call %d: %d, want 200", i, got)
		}
	}

	// Without an engine there is no /chaos route at all.
	plain := NewServer(reg, Config{})
	ts2 := httptest.NewServer(plain)
	defer ts2.Close()
	defer plain.Close()
	r2, err := http.Get(ts2.URL + "/chaos")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("/chaos on a chaos-free server: %d, want 404", r2.StatusCode)
	}
}
