package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet/quota"
	"repro/internal/obs"
)

// Config tunes a Server.
type Config struct {
	// Batcher configures every lane's micro-batcher.
	Batcher BatcherConfig
	// RequestTimeout bounds each request's end-to-end time server-side;
	// 0 disables. Client cancellation is honored regardless.
	RequestTimeout time.Duration
	// CanaryInterval is the period of the canary self-test loop: every
	// registered model replays its golden vectors and is taken out of
	// rotation (503) on divergence. 0 disables the loop; self-tests can
	// still run on demand via RunCanaries or POST /v1/scrub.
	CanaryInterval time.Duration
	// Trace, when set, records serving stage spans (one per dispatched
	// batch, tracked per lane) into this tracer; the CLI exports it as a
	// Chrome trace on shutdown. Nil disables tracing.
	Trace *obs.Tracer
	// Replica, when non-empty, stamps every metric series this server
	// registers with a replica="..." label, so a fleet scraping many
	// replicas into one view can tell them apart without relabeling.
	Replica string
	// TenantRate enables per-tenant admission quotas: each tenant gets a
	// token bucket refilling at this many requests/second (burst
	// TenantBurst), and a tenant past its bucket is shed with 429 +
	// Retry-After while other tenants are untouched. 0 disables quotas.
	TenantRate float64
	// TenantBurst is the per-tenant bucket capacity; <=0 defaults to
	// max(1, 2*TenantRate).
	TenantBurst int
	// TenantMax bounds how many tenant buckets are kept at once; the least
	// recently used tenant is evicted past the bound (and starts from a
	// fresh full-burst bucket if it returns). <=0 uses the quota package
	// default.
	TenantMax int
	// Chaos, when set, arms the failpoints on the predict and health paths
	// ("serve.predict", "serve.healthz") and exposes /chaos for runtime
	// control. Nil — the default — wires nothing: the handlers are the very
	// same values as without the engine.
	Chaos *chaos.Engine
}

// lane is one (model, path) serving pipeline: its batcher and its metrics.
type lane struct {
	b   *Batcher
	met *Metrics
}

// Server is the HTTP inference front end. Routes:
//
//	POST /v1/predict  {"model":..., "path":"software"|"hardware", "inputs":[[...],...]}
//	GET  /v1/models   the registry with shapes and available paths
//	GET  /healthz     readiness (503 while draining)
//	GET  /stats       per-lane counters, quantiles and substrate activity
//	GET  /metrics     Prometheus text exposition of every lane's registry
//
// Lanes are created lazily on first use; Close drains them all.
type Server struct {
	cfg   Config
	reg   *Registry
	mux   *http.ServeMux
	start time.Time

	// obs is the server-wide metrics registry: every lane registers its
	// counters and histograms here (labeled lane="model/path") and /metrics
	// exposes the whole thing in one scrape.
	obs         *obs.Registry
	canaryRuns  *obs.Counter
	canaryFails *obs.Counter

	// tenants holds the per-tenant admission buckets (nil when quotas are
	// disabled); tenantSheds/tenantAdmits are registered lazily per tenant.
	tenants *quota.Set

	mu     sync.Mutex
	lanes  map[string]*lane
	closed bool

	// Canary loop lifecycle (nil channels when the loop is disabled).
	canaryStop chan struct{}
	canaryDone chan struct{}
}

// NewServer builds a server over the registry. The registry may keep
// gaining models after the server starts.
func NewServer(reg *Registry, cfg Config) *Server {
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		mux:   http.NewServeMux(),
		start: time.Now(),
		obs:   obs.NewRegistry(),
		lanes: make(map[string]*lane),
	}
	if cfg.Replica != "" {
		s.obs.SetCommonLabels(obs.L("replica", cfg.Replica))
	}
	if cfg.TenantRate > 0 {
		burst := float64(cfg.TenantBurst)
		if burst <= 0 {
			burst = 2 * cfg.TenantRate
			if burst < 1 {
				burst = 1
			}
		}
		s.tenants = quota.NewSet(cfg.TenantRate, burst)
		if cfg.TenantMax > 0 {
			s.tenants.SetMax(cfg.TenantMax)
		}
		evicted := s.obs.Counter("rapidnn_serve_tenant_evictions_total",
			"Tenant quota buckets evicted from the LRU-bounded map; a returning tenant starts from a fresh full-burst bucket.")
		s.tenants.SetOnEvict(func(string) { evicted.Inc() })
	}
	s.canaryRuns = s.obs.Counter("rapidnn_serve_canary_runs_total",
		"Canary self-test passes executed across all models.")
	s.canaryFails = s.obs.Counter("rapidnn_serve_canary_failures_total",
		"Canary self-test passes that found a degraded model.")
	s.obs.GaugeFunc("rapidnn_serve_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.obs.GaugeFunc("rapidnn_serve_models",
		"Registered models.",
		func() float64 { return float64(s.reg.Len()) })
	s.obs.GaugeFunc("rapidnn_serve_degraded_models",
		"Models currently failing their canary self-tests.",
		func() float64 { return float64(len(s.degradedModels())) })
	s.mux.Handle("/v1/predict", chaos.Middleware(cfg.Chaos, "serve.predict", http.HandlerFunc(s.handlePredict)))
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/scrub", s.handleScrub)
	s.mux.Handle("/healthz", chaos.Middleware(cfg.Chaos, "serve.healthz", http.HandlerFunc(s.handleHealthz)))
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Chaos != nil {
		s.mux.Handle("/chaos", chaos.AdminHandler(cfg.Chaos))
	}
	if cfg.CanaryInterval > 0 {
		s.canaryStop = make(chan struct{})
		s.canaryDone = make(chan struct{})
		go s.canaryLoop(cfg.CanaryInterval)
	}
	return s
}

// canaryLoop periodically self-tests every registered model. The first pass
// runs immediately so a server booted on a corrupted artifact degrades
// within one interval, not two.
func (s *Server) canaryLoop(interval time.Duration) {
	defer close(s.canaryDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	s.RunCanaries()
	for {
		select {
		case <-s.canaryStop:
			return
		case <-ticker.C:
			s.RunCanaries()
		}
	}
}

// RunCanaries self-tests every registered model once and returns the
// reports, sorted by model name.
func (s *Server) RunCanaries() []CanaryReport {
	names := s.reg.Names()
	reports := make([]CanaryReport, 0, len(names))
	for _, name := range names {
		if m, ok := s.reg.Get(name); ok {
			rep := m.SelfTest()
			s.canaryRuns.Inc()
			if rep.Degraded {
				s.canaryFails.Inc()
			}
			reports = append(reports, rep)
		}
	}
	return reports
}

// Obs exposes the server-wide metrics registry so embedders (the CLI) can
// write a final snapshot alongside the live /metrics endpoint.
func (s *Server) Obs() *obs.Registry { return s.obs }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close begins the graceful shutdown: new requests are refused with 503
// while every already-admitted request drains to completion. It returns
// once all lanes are drained and is safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	lanes := make([]*lane, 0, len(s.lanes))
	for _, ln := range s.lanes {
		lanes = append(lanes, ln)
	}
	s.mu.Unlock()
	if !already && s.canaryStop != nil {
		close(s.canaryStop)
		<-s.canaryDone
	}
	for _, ln := range lanes {
		ln.b.Close()
	}
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// laneFor returns the (model, path) pipeline, creating it on first use.
func (s *Server) laneFor(m *Model, p Path) (*lane, error) {
	key := m.Name + "/" + string(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if ln, ok := s.lanes[key]; ok {
		return ln, nil
	}
	fn, err := m.inferFn(p)
	if err != nil {
		return nil, err
	}
	met := NewMetricsIn(s.obs, key)
	bcfg := s.cfg.Batcher
	bcfg.Trace = s.cfg.Trace
	bcfg.TraceTrack = "serve/" + key
	ln := &lane{b: NewBatcher(bcfg, fn, met), met: met}
	s.obs.GaugeFunc("rapidnn_serve_queue_depth",
		"Current admission-queue occupancy.",
		func() float64 { return float64(ln.b.Depth()) },
		obs.L("lane", key))
	s.lanes[key] = ln
	return ln, nil
}

type predictRequest struct {
	Model  string      `json:"model"`
	Path   string      `json:"path"`
	Tenant string      `json:"tenant"`
	Inputs [][]float32 `json:"inputs"`
}

// TenantHeader carries the tenant identity when it is not in the request
// body; the header wins when both are set (it is what proxies stamp).
const TenantHeader = "X-Tenant"

// DefaultTenant is the bucket anonymous traffic shares.
const DefaultTenant = "anonymous"

// tenantOf resolves a request's tenant identity.
func tenantOf(r *http.Request, body *predictRequest) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	if body.Tenant != "" {
		return body.Tenant
	}
	return DefaultTenant
}

// tenantOutcome bumps the per-tenant admission counter — the observable
// record of every quota decision, labeled tenant + outcome.
func (s *Server) tenantOutcome(tenant, outcome string) {
	s.obs.Counter("rapidnn_serve_tenant_requests_total",
		"Predict requests per tenant by admission outcome (admitted, shed).",
		obs.L("tenant", tenant), obs.L("outcome", outcome)).Inc()
}

// deadlineOutcome counts an admission-time deadline rejection, labeled by
// why the budget could not be honored.
func (s *Server) deadlineOutcome(reason string) {
	s.obs.Counter("rapidnn_serve_deadline_rejected_total",
		"Predict requests refused at admission because the propagated deadline budget cannot cover the expected wait.",
		obs.L("reason", reason)).Inc()
}

type predictResponse struct {
	Model       string `json:"model"`
	Path        string `json:"path"`
	Predictions []int  `json:"predictions"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeOverload is the backpressure response: clients are told to retry
// rather than pile onto a saturated queue.
func writeOverload(w http.ResponseWriter, err error) {
	writeOverloadAfter(w, err, retryAfterMinSec)
}

// writeOverloadAfter sheds with an explicit Retry-After — the lane-aware
// path computes the hint from queue depth and drain rate.
func writeOverloadAfter(w http.ResponseWriter, err error, secs int) {
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable, "%v", err)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining() {
		writeOverload(w, ErrClosed)
		return
	}
	budget, hasBudget, err := ParseDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req predictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	tenant := tenantOf(r, &req)
	if s.tenants != nil {
		now := time.Now()
		if !s.tenants.Allow(tenant, now) {
			// Quota shed is a client-rate problem, not server overload: 429
			// keeps it distinct from the 503 backpressure signals so the
			// router and the load reports can tell the two apart.
			s.tenantOutcome(tenant, "shed")
			ra := int(s.tenants.RetryAfter(tenant, now)/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(ra))
			writeError(w, http.StatusTooManyRequests,
				"tenant %q is over its admission quota; retry after %ds", tenant, ra)
			return
		}
		s.tenantOutcome(tenant, "admitted")
	}
	if req.Model == "" && s.reg.Len() == 1 {
		req.Model = s.reg.Names()[0]
	}
	m, ok := s.reg.Get(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q (serving: %s)",
			req.Model, strings.Join(s.reg.Names(), ", "))
		return
	}
	if m.Degraded() {
		// Shed traffic from a model failing its canaries: clients get an
		// explicit retryable signal while healthy models keep answering.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable,
			"model %q is degraded (failing canary self-tests); scrub it or retry later", m.Name)
		return
	}
	path := Path(req.Path)
	if req.Path == "" {
		path = PathSoftware
	}
	if len(req.Inputs) == 0 {
		writeError(w, http.StatusBadRequest, "inputs is empty")
		return
	}
	for i, row := range req.Inputs {
		if len(row) != m.InSize() {
			writeError(w, http.StatusBadRequest, "inputs[%d] has %d features, model %s wants %d",
				i, len(row), m.Name, m.InSize())
			return
		}
	}
	ln, err := s.laneFor(m, path)
	if err != nil {
		switch {
		case errors.Is(err, ErrClosed):
			writeOverload(w, err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	if hasBudget {
		// Admission control on the propagated deadline: a request whose
		// remaining budget is spent or cannot cover the lane's expected wait
		// — the queued rows and the batch already executing — is refused up
		// front: a costless 503 the caller can spend elsewhere instead of a
		// 504 after wasted work.
		depth, running := ln.b.Depth(), ln.b.Executing()
		drain := ln.met.DrainRate(time.Now())
		if v := checkDeadline(budget, depth+running, drain); v.reject {
			s.deadlineOutcome(v.reason)
			w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(depth, drain)))
			writeError(w, http.StatusServiceUnavailable,
				"deadline budget %v rejected at admission (%s): lane %s/%s has %d rows queued, %d executing",
				budget, v.reason, m.Name, path, depth, running)
			return
		}
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	if hasBudget {
		// The admitted budget becomes a hard context deadline: overruns
		// cancel mid-flight exactly like a client timeout would.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	// Rows are submitted individually and concurrently: the batcher is free
	// to coalesce them with each other and with other clients' rows.
	preds := make([]int, len(req.Inputs))
	errs := make([]error, len(req.Inputs))
	if len(req.Inputs) == 1 {
		preds[0], errs[0] = ln.b.Submit(ctx, req.Inputs[0])
	} else {
		var wg sync.WaitGroup
		for i, row := range req.Inputs {
			wg.Add(1)
			go func(i int, row []float32) {
				defer wg.Done()
				preds[i], errs[i] = ln.b.Submit(ctx, row)
			}(i, row)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err == nil {
			continue
		}
		switch {
		case errors.Is(err, ErrQueueFull):
			// The shed carries a data-driven hint: how long this lane's
			// current queue needs to drain at its observed completion rate.
			writeOverloadAfter(w, err,
				RetryAfterSeconds(ln.b.Depth(), ln.met.DrainRate(time.Now())))
		case errors.Is(err, ErrClosed):
			writeOverload(w, err)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "%v", err)
		case errors.Is(err, context.Canceled):
			// The client has gone; the status is moot but 499-style close
			// beats pretending success.
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{Model: m.Name, Path: string(path), Predictions: preds})
}

type modelInfo struct {
	Name     string        `json:"name"`
	InSize   int           `json:"in_size"`
	Classes  int           `json:"classes"`
	Paths    []string      `json:"paths"`
	Topology string        `json:"topology"`
	Health   string        `json:"health"`
	Artifact VersionInfo   `json:"artifact"`
	Canary   *CanaryReport `json:"canary,omitempty"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	infos := make([]modelInfo, 0, s.reg.Len())
	for _, name := range s.reg.Names() {
		m, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		paths := []string{string(PathSoftware)}
		if m.HasHardware() {
			paths = append(paths, string(PathHardware))
		}
		info := modelInfo{
			Name: m.Name, InSize: m.InSize(), Classes: m.Classes(),
			Paths: paths, Topology: m.Topology(), Health: "ok",
			Artifact: m.Version(),
		}
		if m.Degraded() {
			info.Health = "degraded"
		}
		if rep, ok := m.LastReport(); ok {
			info.Canary = &rep
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

// degradedModels lists the registered models currently failing their
// canaries, sorted by name.
func (s *Server) degradedModels() []string {
	var out []string
	for _, name := range s.reg.Names() {
		if m, ok := s.reg.Get(name); ok && m.Degraded() {
			out = append(out, name)
		}
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	degraded := s.degradedModels()
	if len(degraded) > 0 {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	if s.draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	// Versions lets the fleet verify what each replica actually serves —
	// the rollout controller gates promotion on seeing the new version here,
	// not on having asked for it.
	versions := make(map[string]VersionInfo, s.reg.Len())
	for _, name := range s.reg.Names() {
		if m, ok := s.reg.Get(name); ok {
			versions[name] = m.Version()
		}
	}
	body := map[string]any{
		"status":   status,
		"models":   s.reg.Names(),
		"versions": versions,
		"uptime_s": time.Since(s.start).Seconds(),
	}
	if len(degraded) > 0 {
		body["degraded_models"] = degraded
	}
	writeJSON(w, code, body)
}

type scrubRequest struct {
	Model string `json:"model"`
	// Artifact, when set, hot-swaps the model to this artifact file instead
	// of reloading the current one — the fleet's load-new-version primitive.
	Artifact string `json:"artifact"`
}

// scrubResponse extends the self-test report with the identity of whatever
// the model serves after the scrub, so a rollout controller can verify the
// swap it asked for actually took.
type scrubResponse struct {
	CanaryReport
	Artifact VersionInfo `json:"artifact"`
}

// handleScrub rebuilds a degraded model's executor state (reloading its
// artifact when disk-backed, or hot-swapping to a new artifact when the
// request names one) and re-runs the self-test, returning the fresh report.
// Healthy models may be scrubbed too — the no-artifact form is idempotent.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining() {
		writeOverload(w, ErrClosed)
		return
	}
	var req scrubRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Model == "" && s.reg.Len() == 1 {
		req.Model = s.reg.Names()[0]
	}
	m, ok := s.reg.Get(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q (serving: %s)",
			req.Model, strings.Join(s.reg.Names(), ", "))
		return
	}
	rep, err := m.ScrubTo(req.Artifact)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, scrubResponse{CanaryReport: rep, Artifact: m.Version()})
}

// handleMetrics is the Prometheus scrape endpoint: the whole registry —
// every lane's counters and histograms plus the server-level gauges — in
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.obs.WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	lanes := make(map[string]*lane, len(s.lanes))
	for key, ln := range s.lanes {
		lanes[key] = ln
	}
	s.mu.Unlock()
	stats := make(map[string]LaneStats, len(lanes))
	for key, ln := range lanes {
		stats[key] = ln.met.Snapshot(ln.b.Depth())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s": time.Since(s.start).Seconds(),
		"lanes":    stats,
	})
}
