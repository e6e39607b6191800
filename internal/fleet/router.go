package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet/quota"
	"repro/internal/fleet/rollout"
	"repro/internal/obs"
	"repro/internal/serve"
)

// RouterConfig wires a Router to its pool and policies.
type RouterConfig struct {
	// Pool is the replica membership the router balances over. Required.
	Pool *Pool
	// Controller, when set, exposes canary-then-promote rollouts on
	// POST /fleet/rollout.
	Controller *rollout.Controller
	// Registry, when set, lets /fleet/rollout name registry versions and
	// GET /fleet/rollout report what is promotable.
	Registry *rollout.Registry
	// Retries is how many distinct replicas a predict may try (the ring
	// walk's candidate count). Default 2: the consistent owner plus one
	// failover. Predicts are pure, so retrying is always safe.
	Retries int
	// MaxQueueDepth sheds requests to replicas whose scraped queue-depth
	// gauge exceeds it, before spending a proxy attempt on them. 0 disables.
	MaxQueueDepth float64
	// TenantRate/TenantBurst enable router-level per-tenant token buckets,
	// the fleet-wide admission quota in front of the per-replica ones.
	// TenantRate 0 disables.
	TenantRate  float64
	TenantBurst int
	// TenantMax bounds the tenant bucket map (LRU eviction past it);
	// <=0 uses the quota package default.
	TenantMax int
	// RetryBudget is the router-wide retry allowance as a fraction of
	// primary traffic: each first attempt earns this many tokens (up to
	// RetryBudgetCap) and each retry or hedge spends one. <=0 defaults to
	// 0.2 — at most 20% extra load from retries in steady state.
	RetryBudget float64
	// RetryBudgetCap bounds the token bucket (and is its starting level, so
	// cold-start failovers are not penalized). <1 defaults to 10.
	RetryBudgetCap float64
	// BreakerFailures / BreakerCooldown tune the per-replica circuit
	// breakers (see BreakerConfig); zero values take that type's defaults.
	BreakerFailures int
	BreakerCooldown time.Duration
	// HedgeAfter enables tail hedging: when the sole in-flight attempt of
	// an idempotent predict has been out for max(HedgeAfter, the
	// HedgeQuantile of recent attempt latencies), a second attempt is sent
	// to the next ring candidate and the first response wins. Hedges spend
	// retry-budget tokens. 0 disables hedging.
	HedgeAfter time.Duration
	// HedgeQuantile picks the latency quantile that arms the hedge timer;
	// outside (0,1) defaults to 0.9.
	HedgeQuantile float64
	// Chaos, when set, arms the "router.forward" failpoint on the proxy
	// transport and exposes /chaos for runtime control. Nil wires nothing.
	Chaos *chaos.Engine
	// Client proxies the predict calls; nil uses a client with a 30s
	// timeout (hardware-path predicts are slow).
	Client *http.Client
}

// Router is the fleet front door. Routes:
//
//	POST /v1/predict    proxied to the consistent-hash owner, failing over
//	                    across the ring walk; per-tenant quotas apply
//	GET  /v1/models     the fleet's model → replicas/versions view
//	GET  /healthz       router readiness (needs ≥1 healthy replica)
//	GET  /metrics       Prometheus exposition of the router's own metrics
//	GET  /fleet/replicas  every replica's probed state
//	POST /fleet/register  {"url": ...} adds a backend to the pool
//	POST /fleet/rollout   {"model","version"} runs a canary-then-promote
//	GET  /fleet/rollout?model=m  the latest rollout status
type Router struct {
	cfg      RouterConfig
	pool     *Pool
	client   *http.Client
	mux      *http.ServeMux
	tenants  *quota.Set
	breakers *BreakerSet
	budget   *retryBudget
	latWin   *latencyWindow

	obs             *obs.Registry
	retries         *obs.Counter
	attempts        *obs.Counter
	hedges          *obs.Counter
	hedgeWins       *obs.Counter
	budgetSpent     *obs.Counter
	budgetExhausted *obs.Counter
	attemptSec      *obs.Histogram
}

// NewRouter builds the fleet front door over a pool.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Pool == nil {
		panic("fleet: RouterConfig.Pool is required")
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Chaos != nil {
		// Wrap a copy so an injected client shared with other consumers does
		// not silently gain failpoints.
		wrapped := *client
		wrapped.Transport = &chaos.Transport{Engine: cfg.Chaos, Point: "router.forward", Base: client.Transport}
		client = &wrapped
	}
	rt := &Router{
		cfg:      cfg,
		pool:     cfg.Pool,
		client:   client,
		mux:      http.NewServeMux(),
		obs:      obs.NewRegistry(),
		breakers: NewBreakerSet(BreakerConfig{Failures: cfg.BreakerFailures, Cooldown: cfg.BreakerCooldown}),
		budget:   newRetryBudget(cfg.RetryBudget, cfg.RetryBudgetCap),
		latWin:   newLatencyWindow(),
	}
	if cfg.TenantRate > 0 {
		burst := float64(cfg.TenantBurst)
		if burst <= 0 {
			burst = 2 * cfg.TenantRate
			if burst < 1 {
				burst = 1
			}
		}
		rt.tenants = quota.NewSet(cfg.TenantRate, burst)
		if cfg.TenantMax > 0 {
			rt.tenants.SetMax(cfg.TenantMax)
		}
		evicted := rt.obs.Counter("rapidnn_router_tenant_evictions_total",
			"Tenant quota buckets evicted from the LRU-bounded map; a returning tenant starts from a fresh full-burst bucket.")
		rt.tenants.SetOnEvict(func(string) { evicted.Inc() })
	}
	rt.retries = rt.obs.Counter("rapidnn_router_retries_total",
		"Predict attempts beyond each request's first replica.")
	rt.attempts = rt.obs.Counter("rapidnn_router_backend_attempts_total",
		"Backend predict attempts launched: primaries, retries and hedges.")
	rt.hedges = rt.obs.Counter("rapidnn_router_hedges_total",
		"Hedge attempts launched against a second replica while the first was still in flight.")
	rt.hedgeWins = rt.obs.Counter("rapidnn_router_hedge_wins_total",
		"Predicts answered by the hedge attempt rather than the primary.")
	rt.budgetSpent = rt.obs.Counter("rapidnn_router_retry_budget_spent_total",
		"Retry-budget tokens spent on retries and hedges.")
	rt.budgetExhausted = rt.obs.Counter("rapidnn_router_retry_budget_exhausted_total",
		"Retries or hedges refused because the retry budget was empty.")
	rt.attemptSec = rt.obs.Histogram("rapidnn_router_attempt_seconds",
		"Latency of individual backend predict attempts.",
		obs.ExpBuckets(0.0001, 2, 17))
	rt.obs.GaugeFunc("rapidnn_router_retry_budget_tokens",
		"Retry-budget tokens currently available.",
		func() float64 { return rt.budget.level() })
	rt.obs.GaugeFunc("rapidnn_router_breaker_open",
		"Replica circuit breakers currently open.",
		func() float64 { return float64(rt.breakers.OpenCount()) })
	rt.breakers.OnTransition(func(target, to string) {
		rt.obs.Counter("rapidnn_router_breaker_transitions_total",
			"Circuit-breaker state transitions per replica.",
			obs.L("target", target), obs.L("to", to)).Inc()
	})
	rt.obs.GaugeFunc("rapidnn_router_healthy_replicas",
		"Replicas currently in the routing ring.",
		func() float64 { return float64(len(rt.pool.Replicas())) })
	rt.obs.GaugeFunc("rapidnn_router_replicas",
		"Replicas registered with the pool, in any state.",
		func() float64 { return float64(len(rt.pool.Snapshot())) })
	rt.mux.HandleFunc("/v1/predict", rt.handlePredict)
	rt.mux.HandleFunc("/v1/models", rt.handleModels)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/fleet/replicas", rt.handleReplicas)
	rt.mux.HandleFunc("/fleet/register", rt.handleRegister)
	rt.mux.HandleFunc("/fleet/rollout", rt.handleRollout)
	if cfg.Chaos != nil {
		rt.mux.Handle("/chaos", chaos.AdminHandler(cfg.Chaos))
	}
	return rt
}

// Obs exposes the router's metrics registry (for final snapshots).
func (rt *Router) Obs() *obs.Registry { return rt.obs }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func (rt *Router) tenantOutcome(tenant, outcome string) {
	rt.obs.Counter("rapidnn_router_tenant_requests_total",
		"Predict requests per tenant by admission outcome (admitted, shed).",
		obs.L("tenant", tenant), obs.L("outcome", outcome)).Inc()
}

func (rt *Router) replicaOutcome(replica, outcome string) {
	rt.obs.Counter("rapidnn_router_replica_requests_total",
		"Proxied predict attempts per replica by outcome (ok, client_error, overloaded, error, skipped).",
		obs.L("target", replica), obs.L("outcome", outcome)).Inc()
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	// The body is forwarded verbatim, so unknown fields pass through. It is
	// not pooled: a hedge or retry may still be sending it when forward
	// returns on the first answer.
	body, err := serve.ReadBody(w, r, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	model, tenant, err := serve.PredictEnvelope(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if t := r.Header.Get(serve.TenantHeader); t != "" {
		tenant = t
	}
	if tenant == "" {
		tenant = serve.DefaultTenant
	}
	if rt.tenants != nil {
		now := time.Now()
		if !rt.tenants.Allow(tenant, now) {
			rt.tenantOutcome(tenant, "shed")
			ra := int(rt.tenants.RetryAfter(tenant, now)/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(ra))
			writeError(w, http.StatusTooManyRequests,
				"tenant %q is over its admission quota; retry after %ds", tenant, ra)
			return
		}
	}
	rt.tenantOutcome(tenant, "admitted")

	budget, hasBudget, err := serve.ParseDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if hasBudget && budget <= 0 {
		// The deadline expired before the router even looked: spending a
		// backend attempt on it would be pure waste.
		rt.deadlineOutcome("expired")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			"deadline budget %v already expired at the router", budget)
		return
	}

	if model == "" {
		// Mirror the single-model convenience of the backends: when the
		// whole fleet serves exactly one model, requests may omit it.
		if models := rt.pool.Models(); len(models) == 1 {
			model = models[0]
		} else {
			writeError(w, http.StatusBadRequest,
				"request names no model and the fleet serves %d", len(models))
			return
		}
	}

	// The ring places (tenant, model): one tenant's traffic for one model
	// lands on one replica (batching locality), spilling to ring successors
	// only on failure or overload.
	candidates := rt.pool.Route(tenant+"|"+model, rt.cfg.Retries)
	if len(candidates) == 0 {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no healthy replicas")
		return
	}

	rt.forward(w, r, candidates, tenant, body, budget, hasBudget)
}

func (rt *Router) deadlineOutcome(reason string) {
	rt.obs.Counter("rapidnn_router_deadline_rejected_total",
		"Predicts refused because their propagated deadline budget had already expired.",
		obs.L("reason", reason)).Inc()
}

// attemptResult is what one backend attempt delivers back to the
// orchestration loop. err set means transport failure; otherwise status,
// header and body carry the backend's answer.
type attemptResult struct {
	replica string
	hedge   bool
	status  int
	header  http.Header
	body    []byte
	err     error
	elapsed time.Duration
}

// forward runs the resilient proxy: a ring walk with per-attempt contexts
// derived from the client's (hang-ups cancel backend work), per-attempt
// deadline shares, breaker gating, budgeted retries, and an optional hedge
// racing the primary. Single-goroutine orchestration: attempts run in
// goroutines but all bookkeeping happens in this loop via resultCh.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, candidates []string, tenant string, body []byte, budget time.Duration, hasBudget bool) {
	parent := r.Context()
	if hasBudget {
		var cancel context.CancelFunc
		parent, cancel = context.WithTimeout(parent, budget)
		defer cancel()
	}
	deadline, _ := parent.Deadline()

	resultCh := make(chan attemptResult, len(candidates))
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	next := 0 // index of the next candidate to consider
	inflight := 0
	sawOverload := false
	maxRetryAfter := 0
	var lastErr error

	// launch starts the next launchable candidate (skipping saturated
	// replicas and open breakers) and reports whether anything took off.
	launch := func(hedge bool) bool {
		for next < len(candidates) {
			replica := candidates[next]
			next++
			if rt.cfg.MaxQueueDepth > 0 && rt.pool.QueueDepth(replica) > rt.cfg.MaxQueueDepth {
				// The scraped gauge says this replica is saturated; shed here
				// rather than adding to its queue and waiting for the 503.
				rt.replicaOutcome(replica, "skipped")
				sawOverload = true
				continue
			}
			if !rt.breakers.Allow(replica) {
				rt.replicaOutcome(replica, "breaker_open")
				lastErr = fmt.Errorf("%s: circuit breaker open", replica)
				continue
			}
			actx := parent
			var cancel context.CancelFunc
			var share time.Duration
			if hasBudget {
				remaining := time.Until(deadline)
				if remaining <= 0 {
					return false
				}
				// Divide what is left across this attempt and every candidate
				// still behind it, so one slow attempt cannot eat the whole
				// budget — unless this is the last option, which may have it all.
				share = remaining / time.Duration(len(candidates)-next+1)
				if share <= 0 {
					share = remaining
				}
				actx, cancel = context.WithTimeout(parent, share)
			} else {
				actx, cancel = context.WithCancel(parent)
			}
			cancels = append(cancels, cancel)
			rt.attempts.Inc()
			inflight++
			go rt.attempt(actx, resultCh, replica, tenant, body, share, hedge)
			return true
		}
		return false
	}

	finish := func() {
		if sawOverload {
			if maxRetryAfter <= 0 {
				maxRetryAfter = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(maxRetryAfter))
			writeError(w, http.StatusServiceUnavailable,
				"all candidate replicas are shedding load; retry after %ds", maxRetryAfter)
			return
		}
		writeError(w, http.StatusBadGateway, "all candidate replicas failed: %v", lastErr)
	}

	rt.budget.earn()
	if !launch(false) {
		finish()
		return
	}

	// The hedge timer arms while exactly one attempt is in flight and a
	// candidate remains; at most one hedge per request.
	hedged := false
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	disarmHedge := func() {
		if hedgeTimer != nil {
			hedgeTimer.Stop()
			hedgeTimer, hedgeC = nil, nil
		}
	}
	defer disarmHedge()
	armHedge := func() {
		if rt.cfg.HedgeAfter <= 0 || hedged || inflight != 1 || next >= len(candidates) {
			return
		}
		hedgeTimer = time.NewTimer(rt.hedgeDelay())
		hedgeC = hedgeTimer.C
	}
	armHedge()

	for {
		select {
		case <-hedgeC:
			hedgeTimer, hedgeC = nil, nil
			hedged = true
			if !rt.budget.spend() {
				rt.budgetExhausted.Inc()
				continue
			}
			rt.budgetSpent.Inc()
			if launch(true) {
				rt.hedges.Inc()
			}
		case res := <-resultCh:
			inflight--
			disarmHedge()
			switch {
			case res.err != nil:
				// Transport failure: the replica may be mid-death ahead of the
				// pool's next poll. Predicts are pure, so walk the ring.
				rt.replicaOutcome(res.replica, "error")
				rt.breakers.Failure(res.replica)
				lastErr = res.err
			case res.status < 300:
				rt.replicaOutcome(res.replica, "ok")
				rt.breakers.Success(res.replica)
				rt.latWin.observe(res.elapsed)
				if res.hedge {
					rt.hedgeWins.Inc()
				}
				relay(w, res.status, res.header, res.body)
				return
			case res.status == http.StatusServiceUnavailable:
				// Backend backpressure: remember its Retry-After hint and try
				// the next ring member, which hashes this key elsewhere.
				// Deliberately breaker-neutral — shedding is the replica
				// protecting itself, not failing.
				rt.replicaOutcome(res.replica, "overloaded")
				sawOverload = true
				if ra, err := strconv.Atoi(res.header.Get("Retry-After")); err == nil && ra > maxRetryAfter {
					maxRetryAfter = ra
				}
			case res.status >= 500:
				rt.replicaOutcome(res.replica, "error")
				rt.breakers.Failure(res.replica)
				lastErr = fmt.Errorf("%s returned HTTP %d: %s", res.replica, res.status,
					strings.TrimSpace(string(res.body)))
			default:
				// 4xx is the client's problem (bad shape, unknown model, its
				// backend-level quota): no other replica would answer differently.
				rt.replicaOutcome(res.replica, "client_error")
				rt.breakers.Success(res.replica)
				relay(w, res.status, res.header, res.body)
				return
			}
			if inflight > 0 {
				continue // the hedge (or primary) is still racing
			}
			if next >= len(candidates) || parent.Err() != nil {
				finish()
				return
			}
			// Retries beyond the first attempt draw from the shared budget: an
			// empty bucket means the fleet is already soaked in retries, and
			// this request sheds instead of piling on.
			if !rt.budget.spend() {
				rt.budgetExhausted.Inc()
				if maxRetryAfter <= 0 {
					maxRetryAfter = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(maxRetryAfter))
				writeError(w, http.StatusServiceUnavailable,
					"retry budget exhausted after a failed attempt; retry after %ds", maxRetryAfter)
				return
			}
			rt.budgetSpent.Inc()
			rt.retries.Inc()
			if !launch(false) {
				finish()
				return
			}
			armHedge()
		}
	}
}

// attempt performs one backend call and reports into the orchestration
// loop. The context carries this attempt's share of the deadline budget;
// share (when a budget exists) is also stamped onto the wire so the backend
// can refuse at admission what it cannot answer in time.
func (rt *Router) attempt(ctx context.Context, resultCh chan<- attemptResult, replica, tenant string, body []byte, share time.Duration, hedge bool) {
	start := time.Now()
	res := attemptResult{replica: replica, hedge: hedge}
	defer func() {
		res.elapsed = time.Since(start)
		rt.attemptSec.Observe(res.elapsed.Seconds())
		resultCh <- res
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		replica+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TenantHeader, tenant)
	if share > 0 {
		req.Header.Set(serve.DeadlineHeader, serve.FormatDeadline(share))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = err
		return
	}
	respBody, readErr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if readErr != nil {
		res.err = readErr
		return
	}
	res.status, res.header, res.body = resp.StatusCode, resp.Header, respBody
}

// hedgeDelay is how long the primary attempt may run before a hedge
// launches: the configured floor, raised to the observed latency quantile
// once enough history exists.
func (rt *Router) hedgeDelay() time.Duration {
	d := rt.cfg.HedgeAfter
	q := rt.cfg.HedgeQuantile
	if q <= 0 || q >= 1 {
		q = 0.9
	}
	if hq, ok := rt.latWin.quantile(q); ok && hq > d {
		d = hq
	}
	return d
}

// relay copies a backend response through, preserving status, content type
// and retry hints.
func relay(w http.ResponseWriter, status int, header http.Header, body []byte) {
	if ct := header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(status)
	w.Write(body)
}

// fleetModel is one model's fleet-wide view in /v1/models.
type fleetModel struct {
	Name     string                       `json:"name"`
	Replicas []string                     `json:"replicas"`
	Versions map[string]serve.VersionInfo `json:"versions"`
}

func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	byModel := make(map[string]*fleetModel)
	for _, rep := range rt.pool.Snapshot() {
		if rep.State != StateHealthy {
			continue
		}
		for _, m := range rep.Models {
			fm, ok := byModel[m]
			if !ok {
				fm = &fleetModel{Name: m, Versions: make(map[string]serve.VersionInfo)}
				byModel[m] = fm
			}
			fm.Replicas = append(fm.Replicas, rep.URL)
			if v, ok := rep.Versions[m]; ok {
				fm.Versions[rep.URL] = v
			}
		}
	}
	models := make([]fleetModel, 0, len(byModel))
	for _, name := range rt.pool.Models() {
		if fm, ok := byModel[name]; ok {
			models = append(models, *fm)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": models})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := rt.pool.Replicas()
	status, code := "ok", http.StatusOK
	if len(healthy) == 0 {
		status, code = "unavailable", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":           status,
		"healthy_replicas": len(healthy),
		"replicas":         len(rt.pool.Snapshot()),
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	rt.obs.WritePrometheus(w)
}

func (rt *Router) handleReplicas(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"replicas": rt.pool.Snapshot(),
		"breakers": rt.breakers.Snapshot(),
	})
}

type registerRequest struct {
	URL string `json:"url"`
}

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req registerRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if !strings.HasPrefix(req.URL, "http://") && !strings.HasPrefix(req.URL, "https://") {
		writeError(w, http.StatusBadRequest, "url must be an http(s) base URL, got %q", req.URL)
		return
	}
	info := rt.pool.Add(req.URL)
	writeJSON(w, http.StatusOK, map[string]any{"replica": info})
}

type rolloutRequest struct {
	Model   string `json:"model"`
	Version string `json:"version"`
}

// handleRollout triggers a canary-then-promote rollout (POST, synchronous:
// the response is the terminal status) or reports the latest status (GET).
func (rt *Router) handleRollout(w http.ResponseWriter, r *http.Request) {
	if rt.cfg.Controller == nil {
		writeError(w, http.StatusNotFound, "this router has no rollout controller (start it with a registry)")
		return
	}
	switch r.Method {
	case http.MethodGet:
		model := r.URL.Query().Get("model")
		st, ok := rt.cfg.Controller.Status(model)
		if !ok {
			writeError(w, http.StatusNotFound, "no rollout recorded for model %q", model)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodPost:
		var req rolloutRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
		st, err := rt.cfg.Controller.Rollout(req.Model, req.Version)
		if err != nil {
			// The status carries the state machine's whole trajectory —
			// which canaries failed, what was rolled back — so ship it with
			// the error rather than a bare message.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": err.Error(), "status": st,
			})
			return
		}
		writeJSON(w, http.StatusOK, st)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}
