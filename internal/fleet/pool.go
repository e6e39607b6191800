// Package fleet is the serving fabric's control plane: a health-aware
// replica pool feeding a consistent-hash ring, and an HTTP router that
// proxies predict traffic across it with retry-on-next-replica, per-tenant
// admission quotas, and queue-depth-aware load shedding. The pool doubles as
// the rollout controller's Target, so canary-then-promote deployments drive
// the same replicas the router balances.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet/ring"
	"repro/internal/fleet/rollout"
	"repro/internal/serve"
)

// ReplicaState classifies a backend for routing purposes.
type ReplicaState string

const (
	// StateHealthy replicas are ring members and receive traffic.
	StateHealthy ReplicaState = "healthy"
	// StateDegraded replicas answer their health checks but report trouble
	// (failing canaries, draining); they are ejected from the ring but still
	// polled, and re-admitted the moment they recover.
	StateDegraded ReplicaState = "degraded"
	// StateDown replicas stopped answering entirely.
	StateDown ReplicaState = "down"
)

// ReplicaInfo is one backend's externally visible state.
type ReplicaInfo struct {
	URL        string                       `json:"url"`
	State      ReplicaState                 `json:"state"`
	QueueDepth float64                      `json:"queue_depth"`
	Models     []string                     `json:"models,omitempty"`
	Versions   map[string]serve.VersionInfo `json:"versions,omitempty"`
	LastPoll   time.Time                    `json:"last_poll,omitempty"`
	LastError  string                       `json:"last_error,omitempty"`
}

// PoolConfig tunes the membership prober.
type PoolConfig struct {
	// PollInterval is the health-check period. Default 500ms.
	PollInterval time.Duration
	// DownAfter is how many consecutive failed polls demote a replica to
	// down. Default 2: one lost poll is a blip, two is an outage.
	DownAfter int
	// VirtualNodes per ring member; 0 uses the ring default.
	VirtualNodes int
	// Client issues the health and metrics probes; nil uses a client with a
	// 2s timeout.
	Client *http.Client
	// Chaos, when set, arms the "pool.probe" failpoint on the probe client's
	// transport — the knob that exercises flapping and grace-window behavior
	// deterministically. Nil wires nothing.
	Chaos *chaos.Engine
}

// Pool tracks the fleet's replicas: who is healthy (probed via /healthz),
// how loaded they are (queue-depth gauges scraped from /metrics), and what
// each one serves (artifact versions from the health payload). Healthy
// replicas are members of the consistent-hash ring; state transitions adjust
// membership immediately. Pool implements rollout.Target.
type Pool struct {
	cfg    PoolConfig
	client *http.Client
	ring   *ring.Ring

	mu    sync.Mutex
	reps  map[string]*replicaEntry
	stop  chan struct{}
	done  chan struct{}
	begun bool
}

type replicaEntry struct {
	url      string
	state    ReplicaState
	fails    int
	depth    float64
	models   []string
	versions map[string]serve.VersionInfo
	lastPoll time.Time
	lastErr  string
}

// NewPool builds an empty pool.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	if cfg.Chaos != nil {
		wrapped := *client
		wrapped.Transport = &chaos.Transport{Engine: cfg.Chaos, Point: "pool.probe", Base: client.Transport}
		client = &wrapped
	}
	return &Pool{
		cfg:    cfg,
		client: client,
		ring:   ring.New(cfg.VirtualNodes),
		reps:   make(map[string]*replicaEntry),
	}
}

// Add registers a backend by base URL ("http://host:port") and probes it
// immediately, so a healthy replica joins the ring before Add returns. Adding
// an existing URL just re-probes it.
func (p *Pool) Add(url string) ReplicaInfo {
	url = strings.TrimRight(url, "/")
	p.mu.Lock()
	e, ok := p.reps[url]
	if !ok {
		// New replicas start down: they earn ring membership with a
		// successful probe, never by assertion.
		e = &replicaEntry{url: url, state: StateDown}
		p.reps[url] = e
	}
	p.mu.Unlock()
	p.pollReplica(e)
	p.mu.Lock()
	defer p.mu.Unlock()
	return e.info()
}

// Remove unregisters a backend.
func (p *Pool) Remove(url string) {
	url = strings.TrimRight(url, "/")
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.reps, url)
	p.ring.Remove(url)
}

// Start launches the poll loop; Stop halts it. Start is idempotent.
func (p *Pool) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.begun {
		return
	}
	p.begun = true
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop()
}

// Stop halts the poll loop and waits for it.
func (p *Pool) Stop() {
	p.mu.Lock()
	if !p.begun {
		p.mu.Unlock()
		return
	}
	p.begun = false
	stop, done := p.stop, p.done
	p.mu.Unlock()
	close(stop)
	<-done
}

func (p *Pool) loop() {
	defer close(p.done)
	ticker := time.NewTicker(p.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.PollOnce()
		}
	}
}

// PollOnce probes every registered replica once, sequentially in URL order
// (deterministic for tests; fleets are small).
func (p *Pool) PollOnce() {
	p.mu.Lock()
	entries := make([]*replicaEntry, 0, len(p.reps))
	for _, e := range p.reps {
		entries = append(entries, e)
	}
	p.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].url < entries[j].url })
	for _, e := range entries {
		p.pollReplica(e)
	}
}

// healthzBody is the slice of the backend /healthz payload the pool uses.
type healthzBody struct {
	Status   string                       `json:"status"`
	Models   []string                     `json:"models"`
	Versions map[string]serve.VersionInfo `json:"versions"`
}

// pollReplica probes one backend — /healthz for liveness and versions, then,
// only if that answered, /metrics for queue depth — and folds the result
// into its state and the ring. The HTTP calls run outside the pool lock.
func (p *Pool) pollReplica(e *replicaEntry) {
	var hb healthzBody
	status, err := p.getJSON(e.url+"/healthz", &hb)
	depth, depthOK := 0.0, false
	if err == nil {
		depth, depthOK = p.scrapeQueueDepth(e.url)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if _, still := p.reps[e.url]; !still {
		return // removed while we probed
	}
	e.lastPoll = time.Now()
	if err != nil {
		e.fails++
		e.lastErr = err.Error()
		if e.fails >= p.cfg.DownAfter || e.state == StateDown {
			p.setStateLocked(e, StateDown)
		} else {
			// Within the grace window a previously healthy replica keeps its
			// membership: one dropped poll must not reshuffle the ring.
			p.setStateLocked(e, e.state)
		}
		return
	}
	e.fails = 0
	e.lastErr = ""
	e.models = hb.Models
	e.versions = hb.Versions
	if depthOK {
		e.depth = depth
	}
	// A 503 with a parseable body is a replica telling us it is degraded or
	// draining — responsive, observable, but not to be routed to.
	if status == http.StatusOK && hb.Status == "ok" {
		p.setStateLocked(e, StateHealthy)
	} else {
		e.lastErr = "status " + hb.Status
		p.setStateLocked(e, StateDegraded)
	}
}

// setStateLocked applies a state transition and its ring-membership
// consequence. Callers hold p.mu.
func (p *Pool) setStateLocked(e *replicaEntry, s ReplicaState) {
	e.state = s
	if s == StateHealthy {
		p.ring.Add(e.url)
	} else {
		p.ring.Remove(e.url)
	}
}

func (p *Pool) getJSON(url string, v any) (int, error) {
	resp, err := p.client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return resp.StatusCode, fmt.Errorf("parsing %s: %w", url, err)
	}
	return resp.StatusCode, nil
}

// queueDepthMetric is the backend gauge the router sheds on.
const queueDepthMetric = "rapidnn_serve_queue_depth"

// scrapeQueueDepth sums the backend's queue-depth gauge across lanes from
// its Prometheus exposition. Best effort: a failed scrape keeps the previous
// estimate rather than zeroing it (a saturated replica is exactly the one
// whose scrape may time out).
func (p *Pool) scrapeQueueDepth(base string) (float64, bool) {
	resp, err := p.client.Get(base + "/metrics")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return 0, false
	}
	return sumMetric(string(body), queueDepthMetric)
}

// sumMetric totals every sample of one metric family in a Prometheus text
// exposition, across whatever label sets it carries.
func sumMetric(exposition, name string) (float64, bool) {
	var total float64
	found := false
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// The name must end here or at a label block — "foo_total" must not
		// match a scan for "foo".
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		total += v
		found = true
	}
	return total, found
}

func (e *replicaEntry) info() ReplicaInfo {
	info := ReplicaInfo{
		URL: e.url, State: e.state, QueueDepth: e.depth,
		Models:   append([]string(nil), e.models...),
		LastPoll: e.lastPoll, LastError: e.lastErr,
	}
	if len(e.versions) > 0 {
		info.Versions = make(map[string]serve.VersionInfo, len(e.versions))
		for k, v := range e.versions {
			info.Versions[k] = v
		}
	}
	return info
}

// Snapshot returns every replica's state, sorted by URL.
func (p *Pool) Snapshot() []ReplicaInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ReplicaInfo, 0, len(p.reps))
	for _, e := range p.reps {
		out = append(out, e.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Replicas returns the healthy replica URLs — the ring members. (This is
// the rollout.Target view: rollouts only target replicas that can serve.)
func (p *Pool) Replicas() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.Members()
}

// Route returns up to n distinct healthy replicas for a key, the consistent
// owner first — the router's try-in-order candidate list.
func (p *Pool) Route(key string, n int) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.GetN(key, n)
}

// QueueDepth returns the last scraped queue depth for a replica.
func (p *Pool) QueueDepth(url string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.reps[strings.TrimRight(url, "/")]; ok {
		return e.depth
	}
	return 0
}

// Models returns the distinct model names served by healthy replicas,
// sorted.
func (p *Pool) Models() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := make(map[string]bool)
	for _, e := range p.reps {
		if e.state != StateHealthy {
			continue
		}
		for _, m := range e.models {
			seen[m] = true
		}
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// --- rollout.Target ---

// Scrub asks a replica to hot-swap a model to an artifact via its
// generalized /v1/scrub and reports the self-test verdict plus the version
// it ended up serving.
func (p *Pool) Scrub(replica, model, artifact string) (rollout.ScrubResult, error) {
	reqBody, err := json.Marshal(map[string]string{"model": model, "artifact": artifact})
	if err != nil {
		return rollout.ScrubResult{}, err
	}
	resp, err := p.client.Post(replica+"/v1/scrub", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return rollout.ScrubResult{}, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return rollout.ScrubResult{}, fmt.Errorf("fleet: scrub of %s on %s: HTTP %d: %s",
			model, replica, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var sr struct {
		Degraded       bool `json:"degraded"`
		SoftwareFailed int  `json:"software_failed"`
		HardwareFailed int  `json:"hardware_failed"`
		Artifact       struct {
			Version string `json:"version"`
		} `json:"artifact"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		return rollout.ScrubResult{}, fmt.Errorf("fleet: parsing scrub response from %s: %w", replica, err)
	}
	return rollout.ScrubResult{
		Degraded:       sr.Degraded,
		CanariesFailed: sr.SoftwareFailed + sr.HardwareFailed,
		Version:        sr.Artifact.Version,
	}, nil
}

// ServingVersion reports which artifact version a replica serves for a
// model, read from its health payload (which is served even while degraded).
func (p *Pool) ServingVersion(replica, model string) (string, error) {
	var hb healthzBody
	if _, err := p.getJSON(replica+"/healthz", &hb); err != nil {
		return "", err
	}
	v, ok := hb.Versions[model]
	if !ok {
		return "", fmt.Errorf("fleet: %s does not serve %s", replica, model)
	}
	return v.Version, nil
}

// ModelStats sums a replica's completed and failed request counters across
// a model's lanes, from its /stats payload.
func (p *Pool) ModelStats(replica, model string) (completed, failed uint64, err error) {
	var stats struct {
		Lanes map[string]struct {
			Completed uint64 `json:"completed"`
			Failed    uint64 `json:"failed"`
		} `json:"lanes"`
	}
	if _, err := p.getJSON(replica+"/stats", &stats); err != nil {
		return 0, 0, err
	}
	for lane, ls := range stats.Lanes {
		if strings.HasPrefix(lane, model+"/") {
			completed += ls.Completed
			failed += ls.Failed
		}
	}
	return completed, failed, nil
}
