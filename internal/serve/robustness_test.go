package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crossbar"
	"repro/internal/obs"
)

// A panicking backend must fail only its own batch: every request in it gets
// ErrBackend, the dispatcher survives to serve the next batch, and Close
// still returns. Before the guard a panic killed the dispatcher goroutine,
// stranding all queued requests and deadlocking Close.
func TestBatcherRecoversFromBackendPanic(t *testing.T) {
	var calls int
	infer := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		calls++
		if calls == 1 {
			panic("backend exploded")
		}
		return echoInfer(rows)
	}
	b := NewBatcher(BatcherConfig{MaxBatch: 1}, infer, nil)

	if _, err := b.Submit(context.Background(), []float32{1}); !errors.Is(err, ErrBackend) {
		t.Fatalf("panicking batch returned %v, want ErrBackend", err)
	}
	// The dispatcher must still be alive and serving.
	pred, err := b.Submit(context.Background(), []float32{7})
	if err != nil || pred != 7 {
		t.Fatalf("batch after panic: pred=%d err=%v, want 7, nil", pred, err)
	}

	st := b.Metrics().Snapshot(b.Depth())
	if st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("failed=%d completed=%d, want 1, 1", st.Failed, st.Completed)
	}

	done := make(chan struct{})
	go func() { b.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after a backend panic")
	}
}

// A backend that returns the wrong number of predictions must fail the batch
// with ErrBackend instead of panicking the dispatcher on a blind index.
func TestBatcherRejectsWrongLengthPredictions(t *testing.T) {
	short := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		return make([]int, len(rows)-1), crossbar.Stats{}, nil
	}
	b := NewBatcher(BatcherConfig{MaxBatch: 4}, short, nil)
	defer b.Close()

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Submit(context.Background(), []float32{float32(i)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrBackend) {
			t.Fatalf("request %d: got %v, want ErrBackend", i, err)
		}
	}
	if st := b.Metrics().Snapshot(0); st.Failed != n || st.Completed != 0 {
		t.Fatalf("failed=%d completed=%d, want %d, 0", st.Failed, st.Completed, n)
	}
}

// A request whose deadline expires while its batch is being evaluated must be
// counted canceled, not completed: its caller already got ctx.Err() back, so
// counting the delivery as a completion (with a latency observation) would
// flatter the stats with requests nobody received.
func TestBatcherCountsCancelDuringInference(t *testing.T) {
	release := make(chan struct{})
	slow := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		<-release
		return echoInfer(rows)
	}
	b := NewBatcher(BatcherConfig{MaxBatch: 1}, slow, nil)
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, []float32{3})
		errCh <- err
	}()
	// Wait until the request is in flight inside the backend, then cancel
	// mid-inference and let the backend finish.
	for b.Metrics().Snapshot(0).Admitted == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let the dispatcher enter slow()
	cancel()
	close(release)

	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit returned %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := b.Metrics().Snapshot(0)
		if st.Canceled == 1 && st.Completed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled=%d completed=%d, want 1, 0", st.Canceled, st.Completed)
		}
		time.Sleep(time.Millisecond)
	}
}

// ErrBackend must surface to HTTP clients as a 500, and the server must keep
// answering afterwards — the lane's dispatcher survived.
func TestServerMapsBackendFailureTo500(t *testing.T) {
	m := syntheticModel(t, false)
	reg := NewRegistry()
	reg.Add(m)
	s := NewServer(reg, Config{Batcher: BatcherConfig{MaxBatch: 1}})
	defer s.Close()

	// Reach into the lane and swap its backend for a panicking one: the
	// public path exercises batcher + server error mapping end to end.
	ln, err := s.laneFor(m, PathSoftware)
	if err != nil {
		t.Fatal(err)
	}
	real := ln.b.infer
	var calls int
	ln.b.infer = func(rows [][]float32) ([]int, crossbar.Stats, error) {
		calls++
		if calls == 1 {
			panic("lowering corrupted")
		}
		return real(rows)
	}

	ts := httptest.NewServer(s)
	defer ts.Close()
	row := testRows(1, m.InSize(), 3)[0]

	resp, _ := postPredict(t, ts.URL, map[string]any{"model": "tiny", "inputs": [][]float32{row}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking backend returned %d, want 500", resp.StatusCode)
	}
	resp, _ = postPredict(t, ts.URL, map[string]any{"model": "tiny", "inputs": [][]float32{row}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after backend panic returned %d, want 200", resp.StatusCode)
	}
}

// GET /metrics must expose the lane's instruments in Prometheus text format,
// with the outcome counters consistent with the traffic just served.
func TestServerMetricsEndpoint(t *testing.T) {
	m := syntheticModel(t, false)
	reg := NewRegistry()
	reg.Add(m)
	s := NewServer(reg, Config{Batcher: BatcherConfig{MaxBatch: 4}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	rows := testRows(3, m.InSize(), 5)
	resp, _ := postPredict(t, ts.URL, map[string]any{"model": "tiny", "inputs": rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict returned %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`rapidnn_serve_requests_total{lane="tiny/software",outcome="completed"} 3`,
		`rapidnn_serve_admitted_total{lane="tiny/software"} 3`,
		`rapidnn_serve_queue_depth{lane="tiny/software"} 0`,
		`rapidnn_serve_latency_seconds_count{lane="tiny/software"} 3`,
		"# TYPE rapidnn_serve_latency_seconds histogram",
		"rapidnn_serve_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\nfull output:\n%s", want, text)
		}
	}
}

// Batch spans must land on the lane's track when the server is traced.
func TestServerTracesBatches(t *testing.T) {
	m := syntheticModel(t, false)
	reg := NewRegistry()
	reg.Add(m)
	tr := obs.NewTracer(64)
	s := NewServer(reg, Config{
		Batcher: BatcherConfig{MaxBatch: 4},
		Trace:   tr,
	})
	ts := httptest.NewServer(s)
	rows := testRows(2, m.InSize(), 9)
	resp, _ := postPredict(t, ts.URL, map[string]any{"model": "tiny", "inputs": rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict returned %d", resp.StatusCode)
	}
	ts.Close()
	s.Close()

	if tr.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"serve/tiny/software"`) {
		t.Fatalf("trace missing lane track:\n%s", b.String())
	}
}
