// Package chaos is the serving fabric's deterministic failure-injection
// framework. PR 3 proved the pattern at the device level: seeded, revertible
// fault overlays let one lowered network sweep any fault grid. This package
// lifts it to the fleet: named injection points (the router's backend
// transport, the pool's health prober, serve's handler path) evaluate a
// per-point policy — added latency, synthetic transport errors, 5xx
// responses, corrupted or truncated bodies, slow-drip writes, probe
// blackholes — activated by rate or every-Nth-call, all driven by one
// injectable *rand.Rand so a run with a fixed seed replays exactly.
//
// The default is a no-op: a nil *Engine evaluates to "do nothing" with a
// single nil check, and an engine with no rules costs one atomic load per
// evaluation. Production binaries carry the hooks permanently; chaos is
// turned on per-run with a -chaos spec or per-test via the /chaos admin
// endpoint.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Action is what a fired failpoint does to the call it intercepts.
type Action string

const (
	// ActNone is the zero action: proceed untouched.
	ActNone Action = ""
	// ActLatency sleeps Delay (context-aware) before proceeding.
	ActLatency Action = "latency"
	// ActError fails the call with a synthetic transport-level error.
	ActError Action = "error"
	// ActHTTP short-circuits the call with a synthesized HTTP response
	// carrying Code (a 5xx for the catalog's purposes).
	ActHTTP Action = "http"
	// ActCorrupt lets the call proceed, then flips bytes in its payload.
	ActCorrupt Action = "corrupt"
	// ActTruncate lets the call proceed, then cuts its payload short.
	ActTruncate Action = "truncate"
	// ActDrip lets the call proceed but writes its payload one small chunk
	// at a time with Delay between chunks.
	ActDrip Action = "drip"
	// ActBlackhole never answers: the call blocks until its context is done.
	ActBlackhole Action = "blackhole"
)

// Rule is one failpoint policy: when evaluation of Point decides to fire
// (by Rate or every Nth call, at most MaxFires times), Action is applied.
type Rule struct {
	// Point names the injection point this rule attaches to.
	Point string `json:"point"`
	// Action is the failure to inject.
	Action Action `json:"action"`
	// Delay parameterizes ActLatency and ActDrip.
	Delay time.Duration `json:"delay,omitempty"`
	// Code parameterizes ActHTTP.
	Code int `json:"code,omitempty"`
	// Rate activates the rule on each call with this probability (0,1].
	// Exactly one of Rate and Nth must be set.
	Rate float64 `json:"rate,omitempty"`
	// Nth activates the rule on every Nth call (1 = every call).
	Nth int `json:"nth,omitempty"`
	// MaxFires caps how many times the rule fires; 0 is unlimited.
	MaxFires int `json:"max_fires,omitempty"`
}

// Validate checks a rule's internal consistency.
func (r Rule) Validate() error {
	if r.Point == "" {
		return fmt.Errorf("chaos: rule has no point")
	}
	switch r.Action {
	case ActLatency, ActDrip:
		if r.Delay <= 0 {
			return fmt.Errorf("chaos: %s on %s needs a positive delay", r.Action, r.Point)
		}
	case ActHTTP:
		if r.Code < 400 || r.Code > 599 {
			return fmt.Errorf("chaos: http on %s needs a 4xx/5xx code, got %d", r.Point, r.Code)
		}
	case ActError, ActCorrupt, ActTruncate, ActBlackhole:
	default:
		return fmt.Errorf("chaos: unknown action %q on %s", r.Action, r.Point)
	}
	if (r.Rate > 0) == (r.Nth > 0) {
		return fmt.Errorf("chaos: rule on %s must set exactly one of rate and nth", r.Point)
	}
	if r.Rate < 0 || r.Rate > 1 {
		return fmt.Errorf("chaos: rate on %s must be in (0,1], got %g", r.Point, r.Rate)
	}
	if r.Nth < 0 {
		return fmt.Errorf("chaos: nth on %s must be positive, got %d", r.Point, r.Nth)
	}
	if r.MaxFires < 0 {
		return fmt.Errorf("chaos: max fires on %s must be non-negative, got %d", r.Point, r.MaxFires)
	}
	return nil
}

// Outcome is the decision one Eval call returns: the action to apply and its
// parameters. The zero Outcome means "proceed untouched".
type Outcome struct {
	Action Action
	Delay  time.Duration
	Code   int
}

// point is the per-point runtime state: its rules plus call/fire counters.
type point struct {
	rules []*ruleState
	calls uint64
}

type ruleState struct {
	Rule
	fires uint64
}

// Engine evaluates failpoints. All methods are safe for concurrent use and
// safe on a nil receiver (everything is then a no-op), so call sites carry
// the hooks unconditionally.
type Engine struct {
	mu     sync.Mutex
	rng    *rand.Rand
	seed   int64
	points map[string]*point

	// sleep is the latency-injection clock, injectable for tests so a
	// latency rule does not slow the suite down. The default honors ctx.
	sleep func(ctx context.Context, d time.Duration)
}

// New returns an engine with no rules, seeded for reproducibility.
func New(seed int64) *Engine {
	e := &Engine{points: make(map[string]*point)}
	e.reseedLocked(seed)
	e.sleep = sleepCtx
	return e
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (e *Engine) reseedLocked(seed int64) {
	e.seed = seed
	e.rng = rand.New(rand.NewSource(seed))
}

// Sleep blocks for d or until ctx is done, via the injectable sleeper.
func (e *Engine) Sleep(ctx context.Context, d time.Duration) {
	e.mu.Lock()
	fn := e.sleep
	e.mu.Unlock()
	fn(ctx, d)
}

// Set replaces the engine's entire rule set (validating every rule first)
// and resets all call/fire counters, so a test that POSTs a fresh spec
// starts from a clean, reproducible state.
func (e *Engine) Set(rules []Rule) error {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.points = make(map[string]*point)
	for _, r := range rules {
		p, ok := e.points[r.Point]
		if !ok {
			p = &point{}
			e.points[r.Point] = p
		}
		p.rules = append(p.rules, &ruleState{Rule: r})
	}
	return nil
}

// Reseed resets the random stream (and nothing else); Set + Reseed replays a
// rate-activated scenario exactly.
func (e *Engine) Reseed(seed int64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reseedLocked(seed)
}

// Clear removes every rule.
func (e *Engine) Clear() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.points = make(map[string]*point)
}

// Eval advances one call through a named point and returns the action to
// inject, if any. Rules attached to the point are evaluated in order; the
// first that fires wins. Nil engines and unknown points return the zero
// Outcome.
func (e *Engine) Eval(name string) Outcome {
	if e == nil {
		return Outcome{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.points[name]
	if !ok {
		return Outcome{}
	}
	p.calls++
	for _, rs := range p.rules {
		if rs.MaxFires > 0 && rs.fires >= uint64(rs.MaxFires) {
			continue
		}
		fire := false
		if rs.Nth > 0 {
			fire = p.calls%uint64(rs.Nth) == 0
		} else {
			fire = e.rng.Float64() < rs.Rate
		}
		if !fire {
			continue
		}
		rs.fires++
		return Outcome{Action: rs.Action, Delay: rs.Delay, Code: rs.Code}
	}
	return Outcome{}
}

// PointStatus is one point's observability snapshot.
type PointStatus struct {
	Point string `json:"point"`
	Calls uint64 `json:"calls"`
	Fires uint64 `json:"fires"`
	Rules []Rule `json:"rules"`
}

// Status reports the engine's seed, rules and counters — the /chaos GET
// payload. Points are sorted by name for deterministic output.
type Status struct {
	Seed   int64         `json:"seed"`
	Points []PointStatus `json:"points"`
}

// Status snapshots the engine. Safe on a nil engine (empty status).
func (e *Engine) Status() Status {
	if e == nil {
		return Status{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{Seed: e.seed}
	for name, p := range e.points {
		ps := PointStatus{Point: name, Calls: p.calls}
		for _, rs := range p.rules {
			ps.Fires += rs.fires
			ps.Rules = append(ps.Rules, rs.Rule)
		}
		st.Points = append(st.Points, ps)
	}
	sort.Slice(st.Points, func(i, j int) bool { return st.Points[i].Point < st.Points[j].Point })
	return st
}
