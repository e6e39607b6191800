package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// sample is one open-loop request as the generator saw it. Both times are
// measured from the request's scheduled send time, so a stall anywhere
// before the response — in the generator, while waiting for a connection,
// or in the server — lands in the latency of every request it delays.
type sample struct {
	late    time.Duration // actual send − scheduled send
	latency time.Duration // response − scheduled send
	ok      bool          // answered, and the answer was correct
}

// latencyMS is the sample's latency in milliseconds, +Inf when it failed: a
// failed request misses every latency limit.
func (s sample) latencyMS() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return ms(s.latency)
}

// openLoop sends n requests at fixed spacing: request i is due at
// start + i·interval whether or not earlier requests have been answered.
// Each request runs send on its own goroutine, so a slow answer never holds
// back a later send; the only bound on concurrency is whatever send waits
// on (the HTTP transport's connection cap). openLoop returns once every
// request has been answered.
func openLoop(start time.Time, interval time.Duration, n int, send func(i int) bool) []sample {
	out := make([]sample, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			ok := send(i)
			out[i] = sample{late: sent.Sub(due), latency: time.Since(due), ok: ok}
		}(i, due)
	}
	wg.Wait()
	return out
}

// tailGrid lists the percentiles a tail may report, highest first.
// It stops at p95: on a 2-vCPU virtual machine whose hypervisor steals vCPU
// time in stalls of 5–30 ms, those stalls and not the system set the p99
// (fleet-sw's p99 read 6–32 ms on identical code). The record line still
// reports p99.
var tailGrid = []float64{95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// percentile returns the nearest-rank percentile p of an ascending sample
// and how many samples lie beyond it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // the slack absorbs rounding in p·n/100
	r = min(max(r, 1), n)
	return sorted[r-1], n - r
}

// tail picks the highest percentile of tailGrid with at least minBeyond
// samples beyond it (the median when the sample is too small for any) and
// returns it with its value and the number of samples beyond it.
func tail(sorted []float64) (p, value float64, beyond int) {
	for _, p := range tailGrid {
		if v, b := percentile(sorted, p); b >= minBeyond {
			return p, v, b
		}
	}
	v, b := percentile(sorted, 50)
	return 50, v, b
}

// Window bounds of windowedTail: each window is large enough to hold
// minBeyond samples beyond its p95.
const (
	windowMin  = 200
	maxWindows = 10
)

// windowedTail is the tail latency. The samples, in the order they were
// taken, are cut into as many equal windows as keep windowMin samples each
// (at most maxWindows); it returns the lower quartile (nearest rank) of the
// windows' tails, with the windows' percentile and the fewest samples
// beyond it in any window. On a shared virtual machine the hypervisor's
// stalls come in bursts that fill up to half of a run's windows and move
// their p95 by up to 6×; the quieter quarter of the windows still shows a
// slowdown the system has all the time. Latencies are in milliseconds,
// failures +Inf.
func windowedTail(lat []float64) (p, value float64, beyond, windows int) {
	windows = min(max(len(lat)/windowMin, 1), maxWindows)
	vals := make([]float64, windows)
	beyond = len(lat)
	for w := range vals {
		win := append([]float64(nil), lat[w*len(lat)/windows:(w+1)*len(lat)/windows]...)
		sort.Float64s(win)
		var b int
		p, vals[w], b = tail(win)
		beyond = min(beyond, b)
	}
	sort.Float64s(vals)
	value, _ = percentile(vals, 25)
	return p, value, beyond, windows
}

// p50 is the nearest-rank median of an unordered sample.
func p50(lat []float64) float64 {
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	v, _ := percentile(sorted, 50)
	return v
}

// latenciesMS returns the latencies of samples in milliseconds, in send
// order, failures as +Inf.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latencyMS()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
