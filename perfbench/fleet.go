package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/composer"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	modelName    = "bench"
	replicaCount = 2
	tenantCount  = 8
)

// server is one loopback HTTP listener.
type server struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Serve returns http.ErrServerClosed once close runs; any other
		// failure shows up as failed requests.
		_ = s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the listener, drops its connections and waits for Serve to
// return.
func (s *server) close() {
	s.hs.Close()
	<-s.done
}

// stack is one serving fleet: two in-process replicas behind a router, all
// over loopback HTTP, with every serving knob at the CLI defaults.
type stack struct {
	models   []*serve.Model
	servers  []*serve.Server
	replicas []*server
	pool     *fleet.Pool
	router   *server
	backend  *http.Transport // router → replicas
	clientTr *http.Transport // load generator → router
	client   *http.Client
}

// startFleet builds a stack on the artifact. A non-nil tracer arms the
// traced run: spans around Router.ServeHTTP, every backend attempt and each
// replica's Server.ServeHTTP, plus serve's own batch spans.
func startFleet(wl workload, artifact string, tr *obs.Tracer) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	for i := 0; i < replicaCount; i++ {
		m, err := serve.LoadModelFile(modelName, artifact, wl.path == serve.PathHardware, 0)
		if err != nil {
			return st, err
		}
		st.models = append(st.models, m)
		reg := serve.NewRegistry()
		if err := reg.Add(m); err != nil {
			return st, err
		}
		srv := serve.NewServer(reg, serve.Config{
			RequestTimeout: 30 * time.Second,
			Replica:        "r" + strconv.Itoa(i),
			Trace:          tr,
		})
		st.servers = append(st.servers, srv)
		var h http.Handler = srv
		if tr != nil {
			h = tracedHandler(tr, trackReplica, srv)
		}
		rs, err := listen(h)
		if err != nil {
			return st, err
		}
		st.replicas = append(st.replicas, rs)
	}
	st.pool = fleet.NewPool(fleet.PoolConfig{PollInterval: 500 * time.Millisecond, DownAfter: 2})
	for _, r := range st.replicas {
		if info := st.pool.Add(r.url); info.State != fleet.StateHealthy {
			return st, fmt.Errorf("replica %s is %s after its first probe: %s", r.url, info.State, info.LastError)
		}
	}
	st.pool.Start()
	st.backend = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = st.backend
	if tr != nil {
		rt = &timingTransport{base: st.backend, tr: tr}
	}
	router := fleet.NewRouter(fleet.RouterConfig{
		Pool:            st.pool,
		Retries:         2,
		RetryBudget:     0.2,
		RetryBudgetCap:  10,
		BreakerFailures: 5,
		BreakerCooldown: 5 * time.Second,
		HedgeQuantile:   0.9,
		Client:          &http.Client{Timeout: 30 * time.Second, Transport: rt},
	})
	var h http.Handler = router
	if tr != nil {
		h = tracedHandler(tr, trackRouter, router)
	}
	if st.router, err = listen(h); err != nil {
		return st, err
	}
	conns := runtime.GOMAXPROCS(0)
	st.clientTr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: 90 * time.Second}
	st.client = &http.Client{Timeout: 60 * time.Second, Transport: st.clientTr}
	return st, nil
}

// close tears the stack down front to back and releases the artifacts.
func (st *stack) close() {
	if st.router != nil {
		st.router.close()
	}
	if st.clientTr != nil {
		st.clientTr.CloseIdleConnections()
	}
	if st.pool != nil {
		st.pool.Stop()
	}
	for _, r := range st.replicas {
		r.close()
	}
	if st.backend != nil {
		st.backend.CloseIdleConnections()
	}
	for _, s := range st.servers {
		s.Close()
	}
	for _, m := range st.models {
		m.Composed.Close()
	}
}

// predict sends one pre-encoded request to base (the router, or a replica
// directly) and returns the predicted class. With a tracer it records the
// client span.
func (st *stack) predict(base string, body []byte, tenant string, id int, tr *obs.Tracer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TenantHeader, tenant)
	if tr != nil {
		sid := strconv.Itoa(id)
		req.Header.Set(idHeader, sid)
		sp := tr.Start(trackLoadgen, spanRequest, obs.L(labelID, sid))
		defer sp.End()
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var pr struct {
		Predictions []int `json:"predictions"`
	}
	if err := json.Unmarshal(b, &pr); err != nil {
		return 0, err
	}
	if len(pr.Predictions) != 1 {
		return 0, fmt.Errorf("%d predictions for one row", len(pr.Predictions))
	}
	return pr.Predictions[0], nil
}

// scrape sums one metric over every replica's /metrics.
func (st *stack) scrape(names ...string) ([]float64, error) {
	out := make([]float64, len(names))
	for _, r := range st.replicas {
		resp, err := (&http.Client{Transport: st.backend}).Get(r.url + "/metrics")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for i, n := range names {
			out[i] += sumMetric(string(b), n)
		}
	}
	return out, nil
}

// plan is the seeded request sequence of a fleet workload.
type plan struct {
	rows    []int    // pool row of request i
	tenants []string // tenant of request i
	bodies  [][]byte // encoded predict body per pool row
}

// newPlan draws the requests from the seed: the rows walk seeded
// permutations of the pool, so every pool row is sent before any repeats,
// and each request belongs to one of a few seeded tenants.
func newPlan(wl workload, in *inputs, seed int64, n int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	for len(p.rows) < n {
		p.rows = append(p.rows, rng.Perm(len(in.Pool))...)
	}
	p.rows = p.rows[:n]
	set := make([]string, tenantCount)
	for i := range set {
		set[i] = fmt.Sprintf("tenant-%x", rng.Uint32())
	}
	p.tenants = make([]string, n)
	for i := range p.tenants {
		p.tenants[i] = set[rng.Intn(len(set))]
	}
	p.bodies = make([][]byte, len(in.Pool))
	for i, row := range in.Pool {
		b, err := json.Marshal(struct {
			Model  string      `json:"model"`
			Path   string      `json:"path"`
			Inputs [][]float32 `json:"inputs"`
		}{modelName, string(wl.path), [][]float32{row}})
		if err != nil {
			return nil, err
		}
		p.bodies[i] = b
	}
	return p, nil
}

// want is the reference answer for a pool row on the workload's path.
func want(wl workload, in *inputs, row int) int {
	if wl.path == serve.PathHardware {
		return in.Hardware[row]
	}
	return in.Software[row]
}

// setUp builds a stack and warms it: one request straight to each replica
// creates its serving lane, and one through the router opens the client and
// backend connections.
func setUp(env *runEnv, p *plan, tr *obs.Tracer) (*stack, error) {
	st, err := startFleet(env.o.workload, env.artifact, tr)
	if err != nil {
		return nil, err
	}
	bases := []string{st.router.url}
	for _, r := range st.replicas {
		bases = append(bases, r.url)
	}
	for i, base := range bases {
		row := p.rows[i%len(p.rows)]
		got, err := st.predict(base, p.bodies[row], p.tenants[0], -1, nil)
		if err == nil && got != want(env.o.workload, env.in, row) {
			err = fmt.Errorf("row %d answered %d, want %d", row, got, want(env.o.workload, env.in, row))
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up via %s: %w", base, err)
		}
	}
	return st, nil
}

// fleetPhase is one open-loop phase's measurements.
type fleetPhase struct {
	samples []sample
	use     usage
	wall    time.Duration
	correct int
}

// drive runs the open loop over the first n requests of the plan and checks
// every answer.
func drive(env *runEnv, st *stack, p *plan, n int, tr *obs.Tracer) (*fleetPhase, error) {
	wl, in := env.o.workload, env.in
	var mu sync.Mutex
	var errs []string
	interval := time.Duration(float64(time.Second) / wl.rate)
	u0 := readUsage()
	start := time.Now().Add(10 * time.Millisecond)
	var phase obs.Span
	if tr != nil {
		phase = tr.Start(trackLoadgen, spanPhase)
	}
	samples := openLoop(start, interval, n, func(i int) bool {
		row := p.rows[i]
		got, err := st.predict(st.router.url, p.bodies[row], p.tenants[i], i, tr)
		if err == nil && got != want(wl, in, row) {
			err = fmt.Errorf("row %d answered %d, want %d", row, got, want(wl, in, row))
		}
		if err != nil {
			mu.Lock()
			errs = append(errs, fmt.Sprintf("request %d: %v", i, err))
			mu.Unlock()
			return false
		}
		return true
	})
	phase.End()
	ph := &fleetPhase{samples: samples, use: readUsage().sub(u0)}
	for i, s := range samples {
		if s.ok {
			ph.correct++
		}
		// From the first scheduled send to the last response.
		ph.wall = max(ph.wall, time.Duration(i)*interval+s.latency)
	}
	for i, e := range errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "... %d more failed requests\n", len(errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, e)
	}
	return ph, nil
}

// requests is the number of requests of an open-loop phase.
func requests(wl workload, seconds float64) int {
	return max(1, int(wl.rate*seconds+0.5))
}

// runFleet measures a fleet workload.
func runFleet(env *runEnv) (*outcome, error) {
	wl, o := env.o.workload, env.o
	n := requests(wl, o.seconds)
	if o.trace {
		n = requests(wl, o.seconds/2) // two phases share the run
	}
	p, err := newPlan(wl, env.in, o.seed, n)
	if err != nil {
		return nil, err
	}
	r := env.rec
	r.Loop, r.OfferedRate, r.ConnCap, r.Replicas = "open", wl.rate, runtime.GOMAXPROCS(0), replicaCount
	r.BatchSize = 16 // serve's default MaxBatch
	// The software path evaluates each batch on the batcher's goroutine.
	r.ExecutorWorkers = 1
	if o.trace {
		return traceFleet(env, p, n)
	}
	var times []float64
	var st *stack
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		if st, err = setUp(env, p, nil); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.SetupS = append([]float64(nil), times...)
	ph, err := drive(env, st, p, n, nil)
	st.close()
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: n, failed: n - ph.correct, correct: true, metrics: map[string]float64{}}
	r.GCCycles, r.StealPct = ph.use.gc, ph.use.stealPct()
	m := out.metrics
	m["setup_s"] = p50(times)
	m["peak_rss_mb"] = peakRSSMB()
	m["latency_p50_ms"], _ = r.latencies(latenciesMS(ph.samples))
	m["cpu_ms_per_row"] = ms(ph.use.cpu) / float64(max(ph.correct, 1))
	m["rows_per_s"] = float64(ph.correct) / ph.wall.Seconds()
	return out, nil
}

// traceFleet is the traced run of a fleet workload: an untraced phase, then
// the same requests with spans at every boundary, then the software layer
// measured on its own.
func traceFleet(env *runEnv, p *plan, n int) (*outcome, error) {
	out := &outcome{correct: true, metrics: map[string]float64{}}
	m := out.metrics

	st, err := setUp(env, p, nil)
	if err != nil {
		return nil, err
	}
	plain, err := drive(env, st, p, n, nil)
	st.close()
	if err != nil {
		return nil, err
	}
	m["go.gc_cycles"] = float64(plain.use.gc)
	m["go.alloc_kb_per_row"] = float64(plain.use.alloc) / 1024 / float64(max(plain.correct, 1))
	env.rec.GCCycles, env.rec.StealPct = plain.use.gc, plain.use.stealPct()

	runtime.GC()
	tr := obs.NewTracer(traceCap)
	if st, err = setUp(env, p, tr); err != nil {
		return nil, err
	}
	latency := []string{"rapidnn_serve_latency_seconds_sum", "rapidnn_serve_latency_seconds_count"}
	before, err := st.scrape(latency...)
	if err != nil {
		st.close()
		return nil, err
	}
	traced, err := drive(env, st, p, n, tr)
	if err != nil {
		st.close()
		return nil, err
	}
	after, err := st.scrape(latency...)
	st.close()
	if err != nil {
		return nil, err
	}
	out.attempted = 2 * n
	out.failed = 2*n - plain.correct - traced.correct
	spans, err := readSpans(tr)
	if err != nil {
		return nil, err
	}
	l, err := buildLadder(spans, after[0]-before[0], after[1]-before[1])
	switch {
	case err != nil:
		out.correct = false
		env.rec.Notes = append(env.rec.Notes, "incomplete ladder: "+err.Error())
	case l.negativeAt != "":
		out.correct = false
		env.rec.Notes = append(env.rec.Notes, "negative self time on the "+l.negativeAt+" rung")
	}
	l.metrics(m)
	env.rec.Ladder = l.record()
	late := time.Duration(0)
	for _, s := range traced.samples {
		late = max(late, s.late)
	}
	m["loadgen.late_ms"] = ms(late)
	plainP50, tailMS := env.rec.latencies(latenciesMS(plain.samples))
	m["loadgen.tail_ms"] = tailMS
	m["trace.overhead_pct"] = 100 * (p50(latenciesMS(traced.samples))/plainP50 - 1)

	// The software layer on its own, on the first served rows at the batch
	// size the replicas formed.
	batch := max(1, int(l.batchRows+0.5))
	if err := measureComposer(env, m, p.rows[:min(n, layerRows)], batch); err != nil {
		return nil, err
	}
	return out, nil
}

// measureComposer times the software layer on its own: composer.LoadFile
// on the artifact, and Reinterpreted.Predict on the given pool rows at the
// given batch size.
func measureComposer(env *runEnv, m map[string]float64, rows []int, batch int) error {
	var opens []float64
	var c *composer.Composed
	for i := 0; i < 5; i++ {
		if c != nil {
			c.Close()
		}
		t0 := time.Now()
		var err error
		if c, err = composer.LoadFile(env.artifact); err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(t0)))
	}
	defer c.Close()
	m["composer.open_ms"] = p50(opens)
	re := composer.NewReinterpreted(c.Net, c.Plans)
	in := env.in.InSize
	flat := make([]float32, 0, batch*in)
	var perRow []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for s := 0; s < len(rows); s += batch {
			flat = flat[:0]
			e := min(s+batch, len(rows))
			for _, r := range rows[s:e] {
				flat = append(flat, env.in.Pool[r]...)
			}
			re.Predict(tensor.FromSlice(flat, e-s, in))
		}
		perRow = append(perRow, ms(time.Since(t0))/float64(len(rows)))
	}
	m["composer.predict_ms_per_row"] = p50(perRow)
	return nil
}

// layerRows bounds the rows each layer is timed on by itself.
const layerRows = 64
