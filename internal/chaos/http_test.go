package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// sleepRecorder makes latency/drip injections instantaneous but recorded.
// The mutex matters: middleware sleeps happen on server goroutines.
type sleepRecorder struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (s *sleepRecorder) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slept)
}

func (s *sleepRecorder) all() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.slept...)
}

func fastSleep(e *Engine) *sleepRecorder {
	rec := &sleepRecorder{}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sleep = func(ctx context.Context, d time.Duration) {
		rec.mu.Lock()
		rec.slept = append(rec.slept, d)
		rec.mu.Unlock()
	}
	return rec
}

func okBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"answer":42,"padding":"0123456789abcdef0123456789abcdef"}`)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func engineWith(t *testing.T, spec string) *Engine {
	t.Helper()
	e := New(1)
	rules, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Set(rules); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTransportPassThrough(t *testing.T) {
	ts := okBackend(t)
	client := &http.Client{Transport: &Transport{Engine: nil, Point: "p"}}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pass-through status %d", resp.StatusCode)
	}
}

func TestTransportError(t *testing.T) {
	ts := okBackend(t)
	e := engineWith(t, "p=error@1n")
	client := &http.Client{Transport: &Transport{Engine: e, Point: "p"}}
	_, err := client.Get(ts.URL)
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("injected transport error = %v, want chaos-marked failure", err)
	}
}

func TestTransportHTTP(t *testing.T) {
	ts := okBackend(t)
	e := engineWith(t, "p=http:503@1n")
	client := &http.Client{Transport: &Transport{Engine: e, Point: "p"}}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want injected 503", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "chaos") {
		t.Fatalf("body %q does not identify itself as injected", body)
	}
}

func TestTransportLatencySleepsThenProceeds(t *testing.T) {
	ts := okBackend(t)
	e := engineWith(t, "p=latency:250ms@1n")
	slept := fastSleep(e)
	client := &http.Client{Transport: &Transport{Engine: e, Point: "p"}}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := slept.all(); len(got) != 1 || got[0] != 250*time.Millisecond {
		t.Fatalf("slept %v, want one 250ms injection", got)
	}
}

func TestTransportCorruptBreaksJSON(t *testing.T) {
	ts := okBackend(t)
	e := engineWith(t, "p=corrupt@1n")
	client := &http.Client{Transport: &Transport{Engine: e, Point: "p"}}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if json.Unmarshal(body, &v) == nil {
		t.Fatalf("corrupted body still parses as JSON: %q", body)
	}
}

func TestTransportTruncateShortReads(t *testing.T) {
	ts := okBackend(t)
	e := engineWith(t, "p=truncate@1n")
	client := &http.Client{Transport: &Transport{Engine: e, Point: "p"}}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("truncated body read cleanly: %d bytes %q", len(body), body)
	}
}

func TestTransportBlackholeHonorsDeadline(t *testing.T) {
	ts := okBackend(t)
	e := engineWith(t, "p=blackhole@1n")
	client := &http.Client{
		Transport: &Transport{Engine: e, Point: "p"},
		Timeout:   50 * time.Millisecond,
	}
	start := time.Now()
	_, err := client.Get(ts.URL)
	if err == nil {
		t.Fatal("blackholed call returned")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("blackhole ignored the client deadline for %v", elapsed)
	}
}

func TestMiddlewareHTTPAndPassThrough(t *testing.T) {
	e := engineWith(t, "p=http:500@2n")
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "real")
	})
	ts := httptest.NewServer(Middleware(e, "p", inner))
	defer ts.Close()

	get := func() (int, string) {
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get(); code != http.StatusOK || body != "real" {
		t.Fatalf("call 1: %d %q, want real answer", code, body)
	}
	if code, _ := get(); code != http.StatusInternalServerError {
		t.Fatalf("call 2: %d, want injected 500", code)
	}
	if code, body := get(); code != http.StatusOK || body != "real" {
		t.Fatalf("call 3: %d %q, want real answer", code, body)
	}
}

func TestMiddlewareErrorSeversConnection(t *testing.T) {
	e := engineWith(t, "p=error@1n")
	ts := httptest.NewServer(Middleware(e, "p", http.NotFoundHandler()))
	defer ts.Close()
	_, err := http.Get(ts.URL)
	if err == nil {
		t.Fatal("severed connection produced a response")
	}
}

func TestMiddlewareCorruptAndTruncate(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"predictions":[1,2,3],"padding":"xxxxxxxxxxxxxxxxxxxxxxxx"}`)
	})
	e := engineWith(t, "p=corrupt@1n")
	ts := httptest.NewServer(Middleware(e, "p", inner))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v map[string]any
	if json.Unmarshal(body, &v) == nil {
		t.Fatalf("corrupted response still parses: %q", body)
	}

	e2 := engineWith(t, "p=truncate@1n")
	ts2 := httptest.NewServer(Middleware(e2, "p", inner))
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if rerr == nil {
		t.Fatal("truncated response read cleanly despite the full Content-Length")
	}
	if !errors.Is(rerr, io.ErrUnexpectedEOF) && !strings.Contains(rerr.Error(), "EOF") {
		t.Fatalf("truncated read error = %v", rerr)
	}
}

func TestMiddlewareDripDeliversSlowly(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "slow-body")
	})
	e := engineWith(t, "p=drip:1ms@1n")
	slept := fastSleep(e)
	ts := httptest.NewServer(Middleware(e, "p", inner))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "slow-body" {
		t.Fatalf("dripped body = %q, %v", body, err)
	}
	if slept.count() != len("slow-body") {
		t.Fatalf("dripped %d sleeps for %d bytes", slept.count(), len("slow-body"))
	}
}

func TestMiddlewareNilEngineIsIdentity(t *testing.T) {
	inner := http.NotFoundHandler()
	// Identity in the strong sense: the very same handler value comes back,
	// so the disabled path adds zero indirection.
	if got := Middleware(nil, "p", inner); reflect.ValueOf(got).Pointer() != reflect.ValueOf(inner).Pointer() {
		t.Fatal("nil engine wrapped the handler")
	}
}

func TestAdminHandlerLifecycle(t *testing.T) {
	e := New(1)
	ts := httptest.NewServer(AdminHandler(e))
	defer ts.Close()

	// POST a spec with a seed.
	body, _ := json.Marshal(map[string]any{"spec": "p=http:503@1n", "seed": 99})
	resp, err := http.Post(ts.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST spec: %d", resp.StatusCode)
	}
	if out := e.Eval("p"); out.Action != ActHTTP || out.Code != 503 {
		t.Fatalf("engine did not pick up POSTed rules: %+v", out)
	}

	// GET reports the rules and counters.
	get, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(get.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if st.Seed != 99 || len(st.Points) != 1 || st.Points[0].Calls != 1 || st.Points[0].Fires != 1 {
		t.Fatalf("status = %+v", st)
	}

	// Bad specs are rejected without clobbering the current rules.
	bad, _ := json.Marshal(map[string]any{"spec": "p=explode"})
	resp, err = http.Post(ts.URL, "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d, want 400", resp.StatusCode)
	}
	if out := e.Eval("p"); out.Action != ActHTTP {
		t.Fatal("bad POST clobbered the existing rules")
	}

	// DELETE clears everything.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out := e.Eval("p"); out.Action != ActNone {
		t.Fatalf("rules survived DELETE: %+v", out)
	}
}
