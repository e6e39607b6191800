package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file is the load-generation half of the serving evaluation: an
// open-loop driver that offers traffic to an inference target (a
// serve.Batcher, an HTTP endpoint, any func(i int) error) at a fixed arrival
// rate regardless of completions — the regime where queueing and batching
// actually show up — and a latency/throughput report over the completions.

// LoadReport summarizes one load-generation run. Latencies run from each
// request's due time, so they include any delay in sending it.
type LoadReport struct {
	Requests int           // completions observed
	Errors   int           // completions that returned an error
	Elapsed  time.Duration // first arrival to last completion
	// ThroughputRPS is completed requests per second of elapsed time.
	ThroughputRPS float64
	Mean          time.Duration
	P50, P90, P99 time.Duration
	Max           time.Duration
	// Late is the most the generator fell behind schedule: the largest gap
	// between a request's due time and the moment fn was called for it.
	Late time.Duration
}

// String renders the report as a one-stop latency/throughput line pair.
func (r LoadReport) String() string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf(
		"%d requests (%d errors) in %v: %.0f req/s\nlatency: mean %.3fms p50 %.3fms p90 %.3fms p99 %.3fms max %.3fms (late up to %.3fms)",
		r.Requests, r.Errors, r.Elapsed.Round(time.Millisecond), r.ThroughputRPS,
		ms(r.Mean), ms(r.P50), ms(r.P90), ms(r.P99), ms(r.Max), ms(r.Late))
}

// report folds a latency sample set into a LoadReport.
func report(lats []time.Duration, errs int, late, elapsed time.Duration) LoadReport {
	r := LoadReport{Requests: len(lats), Errors: errs, Late: late, Elapsed: elapsed}
	if elapsed > 0 {
		r.ThroughputRPS = float64(len(lats)) / elapsed.Seconds()
	}
	if len(lats) == 0 {
		return r
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	r.Mean = sum / time.Duration(len(lats))
	r.P50 = LatencyPercentile(lats, 0.50)
	r.P90 = LatencyPercentile(lats, 0.90)
	r.P99 = LatencyPercentile(lats, 0.99)
	r.Max = lats[len(lats)-1]
	return r
}

// LatencyPercentile returns the nearest-rank percentile of an
// ascending-sorted latency sample.
func LatencyPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// OpenLoop fires `total` requests at a fixed arrival interval regardless of
// completions — the offered load stays constant as latency grows, which is
// what exposes queueing delay and batching gains. It is OpenLoopTagged with
// a single class.
func OpenLoop(interval time.Duration, total int, fn func(i int) error) LoadReport {
	return OpenLoopTagged(interval, total, func(int) string { return "" }, fn)[""]
}

// OpenLoopTagged fires `total` requests at a fixed arrival interval and
// partitions the completions into classes: request i is due at
// start + i·interval whatever became of earlier requests, runs fn in its own
// goroutine, and classOf assigns it a class (a tenant name, a replica URL).
// The result is one LoadReport per class over exactly that class's
// requests, so a test can pin "tenant A's shed did not move tenant B's p99"
// with one run. fn's error marks the request failed but its latency still
// counts.
func OpenLoopTagged(interval time.Duration, total int, classOf func(i int) string, fn func(i int) error) map[string]LoadReport {
	if interval <= 0 {
		interval = time.Millisecond
	}
	lats := make([]time.Duration, total)
	lates := make([]time.Duration, total)
	failed := make([]bool, total)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		// Pace arrivals off the global clock, not per-request sleeps, so a
		// slow fn cannot stretch the offered interval.
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lates[i] = time.Since(due)
			err := fn(i)
			lats[i] = time.Since(due)
			failed[i] = err != nil
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	byClass := make(map[string][]time.Duration)
	errsByClass := make(map[string]int)
	lateByClass := make(map[string]time.Duration)
	for i := 0; i < total; i++ {
		c := classOf(i)
		byClass[c] = append(byClass[c], lats[i])
		if failed[i] {
			errsByClass[c]++
		}
		lateByClass[c] = max(lateByClass[c], lates[i])
	}
	out := make(map[string]LoadReport, len(byClass))
	for c, l := range byClass {
		out[c] = report(l, errsByClass[c], lateByClass[c], elapsed)
	}
	return out
}
