package rollout

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeTarget is an in-memory fleet: replicas serve a version string, scrubs
// swap it, and ModelStats advances each replica's counters by a configured
// step per call — two snapshot calls bracket the observe window, so the step
// directly programs the window's error rate.
type fakeTarget struct {
	mu       sync.Mutex
	replicas []string
	serving  map[string]string // replica → version
	degraded map[string]bool   // version → self-test fails on scrub
	scrubErr map[string]error  // replica → scrub transport error
	lieAbout map[string]string // replica → version reported regardless of scrub
	step     map[string][2]uint64
	counts   map[string][2]uint64
	scrubs   []string // "replica→version" in call order
}

func newFakeTarget(replicas ...string) *fakeTarget {
	f := &fakeTarget{
		replicas: replicas,
		serving:  make(map[string]string),
		degraded: make(map[string]bool),
		scrubErr: make(map[string]error),
		lieAbout: make(map[string]string),
		step:     make(map[string][2]uint64),
		counts:   make(map[string][2]uint64),
	}
	for _, r := range replicas {
		f.serving[r] = "v1"
		f.step[r] = [2]uint64{100, 0} // healthy default: traffic, no errors
	}
	return f
}

func versionOf(artifact string) string {
	return strings.TrimSuffix(filepath.Base(artifact), ArtifactExt)
}

func (f *fakeTarget) Replicas() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.replicas...)
}

func (f *fakeTarget) Scrub(replica, model, artifact string) (ScrubResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := versionOf(artifact)
	f.scrubs = append(f.scrubs, replica+"→"+v)
	if err := f.scrubErr[replica]; err != nil {
		return ScrubResult{}, err
	}
	if f.degraded[v] {
		// All-or-nothing semantics: state swapped, then self-test failed.
		f.serving[replica] = v
		return ScrubResult{Degraded: true, CanariesFailed: 3, Version: v}, nil
	}
	f.serving[replica] = v
	if lie, ok := f.lieAbout[replica]; ok {
		return ScrubResult{Version: lie}, nil
	}
	return ScrubResult{Version: v}, nil
}

func (f *fakeTarget) ServingVersion(replica, model string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.serving[replica], nil
}

func (f *fakeTarget) ModelStats(replica, model string) (uint64, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.counts[replica]
	s := f.step[replica]
	c[0] += s[0]
	c[1] += s[1]
	f.counts[replica] = c
	return c[0], c[1], nil
}

// scrubbedWith reports which replicas were ever asked to load a version.
func (f *fakeTarget) scrubbedWith(version string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, s := range f.scrubs {
		if strings.HasSuffix(s, "→"+version) {
			out = append(out, strings.SplitN(s, "→", 2)[0])
		}
	}
	return out
}

// testRegistry pushes v1 and v2 of one model and promotes v1, mirroring a
// fleet that booted from the registry's current version.
func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []string{"v1", "v2"} {
		raw := artifactBytes(t, buildComposed(t, int64(10+i)))
		if _, err := reg.Push("m", v, bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.SetCurrent("m", "v1"); err != nil {
		t.Fatal(err)
	}
	return reg
}

func fastCfg() Config {
	return Config{CanaryFraction: 0.25, ObserveWindow: 20 * time.Millisecond, MaxErrorRateDelta: 0.05}
}

func TestRolloutCanaryThenPromote(t *testing.T) {
	reg := testRegistry(t)
	tgt := newFakeTarget("r1", "r2", "r3", "r4")
	ctl := NewController(reg, tgt, fastCfg())

	st, err := ctl.Rollout("m", "v2")
	if err != nil {
		t.Fatalf("rollout failed: %v\nevents: %s", err, strings.Join(st.Events, "\n"))
	}
	if st.Phase != PhaseDone {
		t.Fatalf("phase = %s, want %s", st.Phase, PhaseDone)
	}
	if len(st.Canaries) != 1 || len(st.Promoted) != 3 {
		t.Fatalf("canaries=%v promoted=%v, want 1 canary and 3 promoted", st.Canaries, st.Promoted)
	}
	for r, v := range tgt.serving {
		if v != "v2" {
			t.Fatalf("replica %s serving %s after promotion", r, v)
		}
	}
	// The canary must have been scrubbed strictly before any other replica.
	if got := tgt.scrubs[0]; got != st.Canaries[0]+"→v2" {
		t.Fatalf("first scrub was %s, want canary %s", got, st.Canaries[0])
	}
	if cur, _ := reg.Current("m"); cur != "v2" {
		t.Fatalf("manifest current = %s, want v2", cur)
	}
	// Status endpoint sees the same terminal state.
	got, ok := ctl.Status("m")
	if !ok || got.Phase != PhaseDone || got.Version != "v2" || got.PrevVersion != "v1" {
		t.Fatalf("Status = %+v, %v", got, ok)
	}
}

func TestRolloutDegradedCanaryRollsBack(t *testing.T) {
	reg := testRegistry(t)
	tgt := newFakeTarget("r1", "r2", "r3", "r4")
	tgt.degraded["v2"] = true
	ctl := NewController(reg, tgt, fastCfg())

	st, err := ctl.Rollout("m", "v2")
	if err == nil {
		t.Fatal("rollout of self-test-failing version succeeded")
	}
	if st.Phase != PhaseFailed {
		t.Fatalf("phase = %s, want %s", st.Phase, PhaseFailed)
	}
	// Only the canary ever saw v2; the rest of the fleet was untouched.
	if got := tgt.scrubbedWith("v2"); len(got) != 1 {
		t.Fatalf("replicas scrubbed with v2 = %v, want exactly the canary", got)
	}
	// And the canary was rolled back to what it served before.
	for r, v := range tgt.serving {
		if v != "v1" {
			t.Fatalf("replica %s left serving %s after rollback", r, v)
		}
	}
	if cur, _ := reg.Current("m"); cur != "v1" {
		t.Fatalf("manifest current = %s after failed rollout, want v1", cur)
	}
}

func TestRolloutErrorRateGateRollsBack(t *testing.T) {
	reg := testRegistry(t)
	tgt := newFakeTarget("r1", "r2", "r3", "r4")
	ctl := NewController(reg, tgt, fastCfg())
	// Replicas sort lexically, so r1 is the canary. Its self-test passes but
	// live traffic starts erroring: 50 failures per 150 requests per window
	// sample — a 33% error rate against an error-free control group.
	tgt.mu.Lock()
	tgt.step["r1"] = [2]uint64{100, 50}
	tgt.mu.Unlock()

	st, err := ctl.Rollout("m", "v2")
	if err == nil {
		t.Fatal("rollout survived a canary error-rate spike")
	}
	if st.Phase != PhaseFailed {
		t.Fatalf("phase = %s, want %s", st.Phase, PhaseFailed)
	}
	if got := tgt.scrubbedWith("v2"); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("replicas scrubbed with v2 = %v, want [r1]", got)
	}
	if v := tgt.serving["r1"]; v != "v1" {
		t.Fatalf("canary left serving %s, want rolled back to v1", v)
	}
}

func TestRolloutVersionMismatchRollsBack(t *testing.T) {
	reg := testRegistry(t)
	tgt := newFakeTarget("r1", "r2")
	tgt.lieAbout["r1"] = "v1" // scrub "succeeds" but the replica reports the old version
	ctl := NewController(reg, tgt, fastCfg())
	if _, err := ctl.Rollout("m", "v2"); err == nil {
		t.Fatal("rollout accepted a canary that never switched versions")
	}
}

func TestRolloutPromoteFailureRollsBackEveryone(t *testing.T) {
	reg := testRegistry(t)
	tgt := newFakeTarget("r1", "r2", "r3", "r4")
	tgt.scrubErr["r3"] = errors.New("connection refused")
	ctl := NewController(reg, tgt, fastCfg())

	st, err := ctl.Rollout("m", "v2")
	if err == nil {
		t.Fatal("rollout succeeded despite a promote-stage failure")
	}
	if st.Phase != PhaseFailed {
		t.Fatalf("phase = %s, want %s", st.Phase, PhaseFailed)
	}
	tgt.mu.Lock()
	defer tgt.mu.Unlock()
	for r, v := range tgt.serving {
		if r == "r3" {
			continue // unreachable replica never changed state
		}
		if v != "v1" {
			t.Fatalf("replica %s left serving %s after promote failure", r, v)
		}
	}
}

func TestRolloutRequiresKnownVersionAndReplicas(t *testing.T) {
	reg := testRegistry(t)
	if _, err := NewController(reg, newFakeTarget("r1"), fastCfg()).Rollout("m", "v9"); err == nil {
		t.Fatal("rollout of unregistered version started")
	}
	if _, err := NewController(reg, newFakeTarget(), fastCfg()).Rollout("m", "v2"); err == nil {
		t.Fatal("rollout with no healthy replicas started")
	}
}

func TestRolloutSerializesPerModel(t *testing.T) {
	reg := testRegistry(t)
	tgt := newFakeTarget("r1", "r2")
	ctl := NewController(reg, tgt, Config{ObserveWindow: 300 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := ctl.Rollout("m", "v2")
		done <- err
	}()
	// Wait for the first rollout to register as running, then collide.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := ctl.Status("m"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first rollout never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := ctl.Rollout("m", "v1"); err == nil {
		t.Fatal("second concurrent rollout of the same model was allowed")
	}
	if err := <-done; err != nil {
		t.Fatalf("first rollout failed: %v", err)
	}
}

func TestWindowErrorRate(t *testing.T) {
	before := map[string]replicaStats{
		"a": {completed: 100, failed: 0, ok: true},
		"b": {completed: 200, failed: 10, ok: true},
		"c": {ok: false},
	}
	after := map[string]replicaStats{
		"a": {completed: 180, failed: 20, ok: true},
		"b": {completed: 290, failed: 20, ok: true},
		"c": {completed: 500, failed: 500, ok: true},
	}
	// a: 80 completed + 20 failed; b: 90 + 10; c excluded (unreadable edge).
	got := windowErrorRate(before, after, []string{"a", "b", "c"})
	want := 30.0 / 200.0
	if fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", want) {
		t.Fatalf("windowErrorRate = %v, want %v", got, want)
	}
	if r := windowErrorRate(before, after, nil); r != 0 {
		t.Fatalf("empty group rate = %v, want 0", r)
	}
}
