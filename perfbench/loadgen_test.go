package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{3000, 95, 150},
		{400, 95, 20},
		{199, 90, 19}, // p95 rounds up to rank 190: 9 beyond
		{60, 75, 15},
		{12, 50, 6}, // too few for ten beyond anything: the median
	} {
		p, v, beyond := tail(ascending(c.n))
		if p != c.p || beyond != c.beyond {
			t.Errorf("n=%d: tail p%v with %d beyond, want p%v with %d", c.n, p, beyond, c.p, c.beyond)
		}
		if want := float64(c.n - beyond); v != want {
			t.Errorf("n=%d: tail value %v, want the sample at rank %v", c.n, v, want)
		}
	}
}

func TestFailedRequestsCountAsInfinitelySlow(t *testing.T) {
	samples := make([]sample, 100)
	for i := range samples {
		samples[i] = sample{latency: time.Duration(i+1) * time.Millisecond, ok: true}
	}
	for i := 0; i < 15; i++ {
		samples[i].ok = false // the fastest fifteen failed
	}
	lat := latenciesMS(samples)
	sort.Float64s(lat)
	if !math.IsInf(lat[len(lat)-1], 1) {
		t.Fatalf("failures must sort last as +Inf: %v", lat[len(lat)-16:])
	}
	p, v, _ := tail(lat)
	if p != 90 || !math.IsInf(v, 1) {
		t.Errorf("with 15 of 100 failed, tail p%v = %v; want p90 = +Inf", p, v)
	}
	if med, _ := percentile(lat, 50); med != 65 {
		t.Errorf("median %v, want 65: failures shift it up", med)
	}
}

// A stall that holds the only connection must show in the latency of the
// requests queued behind it, because each is timed from when it was due,
// not from when it got the connection.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const interval = 5 * time.Millisecond
	const stall = 60 * time.Millisecond
	released := make(chan struct{}) // request 2 gives the connection back
	samples := openLoop(time.Now(), interval, 10, func(i int) bool {
		switch {
		case i == 2:
			time.Sleep(stall)
			close(released)
		case i > 2:
			<-released
		}
		return true
	})
	// Request 2 could not release before it was due at 10 ms plus the
	// stall, so request i, due at 5i ms, waited at least stall − 5(i−2) ms
	// although its own service took no time.
	for i := 3; i < 6; i++ {
		if want := stall - time.Duration(i-2)*interval; samples[i].latency < want {
			t.Errorf("request %d latency %v, want ≥ %v: the stall ahead of it is missing", i, samples[i].latency, want)
		}
	}
	if samples[1].latency > stall/2 {
		t.Errorf("request 1, before the stall, took %v", samples[1].latency)
	}
}

// A generator that falls behind its schedule reports it as lateness, and
// the requests it sent late carry that lateness in their latency.
func TestOpenLoopReportsLateness(t *testing.T) {
	const behind = 40 * time.Millisecond
	samples := openLoop(time.Now().Add(-behind), time.Millisecond, 5, func(int) bool { return true })
	for i, s := range samples[:3] {
		if s.late < behind-time.Duration(i)*time.Millisecond {
			t.Errorf("request %d late by %v, want ≥ %v", i, s.late, behind-time.Duration(i)*time.Millisecond)
		}
		if s.latency < s.late {
			t.Errorf("request %d latency %v is less than its lateness %v", i, s.latency, s.late)
		}
	}
}

// Bursts of stalls in half of the windows move those windows' tails but
// not the metric; a slowdown across the whole run moves it.
func TestWindowedTailResistsStallBursts(t *testing.T) {
	lat := make([]float64, 3000)
	for i := range lat {
		lat[i] = 4 + float64(i%100)/100 // 4.00 … 4.99 ms in every window
	}
	p, base, beyond, windows := windowedTail(lat)
	if p != 95 || windows != maxWindows || beyond < minBeyond {
		t.Fatalf("p%v over %d windows with %d beyond; want p95 over %d windows with ≥ %d beyond",
			p, windows, beyond, maxWindows, minBeyond)
	}
	burst := append([]float64(nil), lat...)
	for i := 0; i < len(burst); i += 3 {
		if (i/300)%2 == 1 {
			burst[i] = 30 // a third of every other window stalled
		}
	}
	if _, v, _, _ := windowedTail(burst); v != base {
		t.Errorf("stalls in half the windows moved the tail from %v to %v", base, v)
	}
	slow := append([]float64(nil), lat...)
	for i := range slow {
		slow[i] *= 1.2
	}
	if _, v, _, _ := windowedTail(slow); v <= base*1.15 {
		t.Errorf("a 20%% slowdown moved the tail only from %v to %v", base, v)
	}
}
