package bench

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestOpenLoopHoldsArrivalRate(t *testing.T) {
	const total = 20
	const interval = 2 * time.Millisecond
	// A fn far slower than the interval must not stretch the arrival
	// schedule: elapsed stays near total*interval + one service time, far
	// below the total*service a closed single client would take.
	const service = 10 * time.Millisecond
	rep := OpenLoop(interval, total, func(i int) error {
		time.Sleep(service)
		return nil
	})
	if rep.Requests != total {
		t.Fatalf("completed %d, want %d", rep.Requests, total)
	}
	if rep.Elapsed > total*service/2 {
		t.Fatalf("open loop took %v — arrivals were serialized behind completions", rep.Elapsed)
	}
}

// At a 1ns interval the generator cannot keep up with its own schedule: the
// report must show it, and since every latency runs from the request's due
// time, no latency can be shorter than the delay in sending it.
func TestOpenLoopReportsLateness(t *testing.T) {
	rep := OpenLoop(time.Nanosecond, 2000, func(i int) error { return nil })
	if rep.Requests != 2000 {
		t.Fatalf("completed %d, want 2000", rep.Requests)
	}
	if rep.Late <= 0 || rep.Max < rep.Late {
		t.Fatalf("late %v, max %v: want 0 < late <= max", rep.Late, rep.Max)
	}
}

func TestLatencyPercentileNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.90, 90 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := LatencyPercentile(sorted, tc.p); got != tc.want {
			t.Fatalf("p%.0f = %v, want %v", 100*tc.p, got, tc.want)
		}
	}
	if LatencyPercentile(nil, 0.5) != 0 {
		t.Fatal("empty sample must report zero")
	}
}

func TestLoadReportString(t *testing.T) {
	rep := OpenLoop(time.Microsecond, 8, func(i int) error { return nil })
	s := rep.String()
	for _, want := range []string{"8 requests", "req/s", "p99", "late up to"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}

func TestOpenLoopTaggedPartitionsByClass(t *testing.T) {
	classOf := func(i int) string {
		if i%3 == 0 {
			return "heavy"
		}
		return "light"
	}
	var errHeavy = errors.New("shed")
	reports := OpenLoopTagged(100*time.Microsecond, 90, classOf, func(i int) error {
		if classOf(i) == "heavy" {
			return errHeavy
		}
		return nil
	})
	if len(reports) != 2 {
		t.Fatalf("got %d classes, want 2", len(reports))
	}
	heavy, light := reports["heavy"], reports["light"]
	if heavy.Requests != 30 || light.Requests != 60 {
		t.Fatalf("partition sizes heavy=%d light=%d, want 30/60", heavy.Requests, light.Requests)
	}
	if heavy.Errors != 30 {
		t.Fatalf("heavy class errors = %d, want all 30", heavy.Errors)
	}
	if light.Errors != 0 {
		t.Fatalf("light class errors = %d, want 0", light.Errors)
	}
	if light.P99 <= 0 || light.Max < light.P99 {
		t.Fatalf("light percentiles inconsistent: p99=%v max=%v", light.P99, light.Max)
	}
}
