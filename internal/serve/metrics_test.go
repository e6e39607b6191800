package serve

import (
	"maps"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/crossbar"
	"repro/internal/obs"
)

// Snapshot reads the lane's obs instruments: each /stats field must follow
// its documented rule and agree with the same lane's Prometheus exposition.
func TestSnapshotReadsInstruments(t *testing.T) {
	// latMS is latency bucket i's upper bound in milliseconds.
	latMS := func(i int) float64 { return 1000 * latencyBuckets[i] }
	last := len(latencyBuckets) - 1
	per := crossbar.Stats{Cycles: 100, NORs: 400, Reads: 7, Writes: 2, EnergyJ: 0.25}
	repeat := func(d time.Duration, n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = d
		}
		return out
	}
	cases := []struct {
		name       string
		batches    []int
		latencies  []time.Duration
		meanBatch  float64
		batchSizes map[string]uint64
		latency    LatencyQuantiles
	}{
		{name: "idle lane", batchSizes: map[string]uint64{}},
		{
			name: "one request", batches: []int{1}, latencies: []time.Duration{150 * time.Microsecond},
			meanBatch: 1, batchSizes: map[string]uint64{"1": 1},
			latency: LatencyQuantiles{P50: latMS(1), P90: latMS(1), P99: latMS(1), Max: latMS(1)},
		},
		{
			// 50 × 1ms (≤1.6ms), 40 × 5ms (≤6.4ms), 9 × 20ms (≤25.6ms) and
			// 1 × 1s (≤1638.4ms): nearest ranks 50, 90 and 99 each close a
			// bucket. Batches of 3 and 4 share the ≤4 bucket, 300 rows land
			// in +Inf.
			name: "mixed", batches: []int{1, 3, 4, 8, 300},
			latencies: append(append(append(repeat(time.Millisecond, 50), repeat(5*time.Millisecond, 40)...),
				repeat(20*time.Millisecond, 9)...), time.Second),
			meanBatch:  316.0 / 5,
			batchSizes: map[string]uint64{"1": 1, "4": 2, "8": 1, "+Inf": 1},
			latency:    LatencyQuantiles{P50: latMS(4), P90: latMS(6), P99: latMS(8), Max: latMS(14)},
		},
		{
			// Beyond the last finite bound: JSON gets the largest finite one.
			name: "beyond the last bucket", latencies: []time.Duration{20 * time.Second},
			batchSizes: map[string]uint64{},
			latency:    LatencyQuantiles{P50: latMS(last), P90: latMS(last), P99: latMS(last), Max: latMS(last)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			m := NewMetricsIn(reg, "l")
			for _, size := range tc.batches {
				m.observeBatch(size, per)
			}
			for _, d := range tc.latencies {
				m.admit()
				m.observeDone(d)
			}
			st := m.Snapshot(3)

			n := int64(len(tc.batches))
			wantSub := SubstrateStats{Cycles: n * per.Cycles, NORs: n * per.NORs, Reads: n * per.Reads,
				Writes: n * per.Writes, EnergyJ: float64(n) * per.EnergyJ}
			if st.Substrate != wantSub {
				t.Errorf("substrate %+v, want %+v", st.Substrate, wantSub)
			}
			if st.Batches != uint64(n) || st.Admitted != uint64(len(tc.latencies)) ||
				st.Completed != uint64(len(tc.latencies)) || st.QueueDepth != 3 {
				t.Errorf("counts %+v", st)
			}
			if st.MeanBatch != tc.meanBatch {
				t.Errorf("mean_batch %v, want %v", st.MeanBatch, tc.meanBatch)
			}
			if !maps.Equal(st.BatchSizes, tc.batchSizes) {
				t.Errorf("batch_sizes %v, want %v", st.BatchSizes, tc.batchSizes)
			}
			if st.LatencyMS != tc.latency {
				t.Errorf("latency_ms %+v, want %+v", st.LatencyMS, tc.latency)
			}

			// The same numbers, read back from the exposition.
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			prom := map[string]float64{}
			var batchLE, latencyLE []string // bucket labels, in exposition order
			for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
				if strings.HasPrefix(line, "#") {
					continue
				}
				key, val, _ := strings.Cut(line, " ")
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("exposition line %q: %v", line, err)
				}
				prom[key] = v
				if le, ok := strings.CutPrefix(key, `rapidnn_serve_batch_size_bucket{lane="l",le="`); ok {
					batchLE = append(batchLE, strings.TrimSuffix(le, `"}`))
				}
				if le, ok := strings.CutPrefix(key, `rapidnn_serve_latency_seconds_bucket{lane="l",le="`); ok {
					latencyLE = append(latencyLE, strings.TrimSuffix(le, `"}`))
				}
			}
			for series, want := range map[string]float64{
				`rapidnn_serve_admitted_total{lane="l"}`:                     float64(st.Admitted),
				`rapidnn_serve_requests_total{lane="l",outcome="completed"}`: float64(st.Completed),
				`rapidnn_serve_batches_total{lane="l"}`:                      float64(st.Batches),
				`rapidnn_serve_batch_size_count{lane="l"}`:                   float64(st.Batches),
				`rapidnn_serve_latency_seconds_count{lane="l"}`:              float64(st.Completed),
				`rapidnn_serve_substrate_cycles_total{lane="l"}`:             float64(st.Substrate.Cycles),
				`rapidnn_serve_substrate_nors_total{lane="l"}`:               float64(st.Substrate.NORs),
				`rapidnn_serve_substrate_reads_total{lane="l"}`:              float64(st.Substrate.Reads),
				`rapidnn_serve_substrate_writes_total{lane="l"}`:             float64(st.Substrate.Writes),
				`rapidnn_serve_substrate_energy_joules_total{lane="l"}`:      st.Substrate.EnergyJ,
			} {
				if got, ok := prom[series]; !ok || got != want {
					t.Errorf("%s = %v (present %v), /stats says %v", series, got, ok, want)
				}
			}
			if n := prom[`rapidnn_serve_batch_size_count{lane="l"}`]; n > 0 {
				if mean := prom[`rapidnn_serve_batch_size_sum{lane="l"}`] / n; mean != st.MeanBatch {
					t.Errorf("mean_batch %v, exposition sum/count %v", st.MeanBatch, mean)
				}
			}
			// Every latency figure is a bucket bound the exposition names.
			for _, v := range []float64{st.LatencyMS.P50, st.LatencyMS.P90, st.LatencyMS.P99, st.LatencyMS.Max} {
				if v == 0 && st.Completed == 0 {
					continue
				}
				found := false
				for _, le := range latencyLE {
					if ub, err := strconv.ParseFloat(le, 64); err == nil && 1000*ub == v {
						found = true
					}
				}
				if !found {
					t.Errorf("latency %vms is no bucket bound of the exposition (%v)", v, latencyLE)
				}
			}
			// batch_sizes is the exposition's cumulative buckets, differenced.
			fromProm := map[string]uint64{}
			var prev float64
			for _, le := range batchLE {
				cum := prom[`rapidnn_serve_batch_size_bucket{lane="l",le="`+le+`"}`]
				if cum > prev {
					fromProm[le] = uint64(cum - prev)
				}
				prev = cum
			}
			if !maps.Equal(fromProm, st.BatchSizes) {
				t.Errorf("batch_sizes %v, exposition buckets %v", st.BatchSizes, fromProm)
			}
		})
	}
}

// A lane's instruments registered via NewMetricsIn must round-trip through
// the registry's Prometheus exposition, substrate counters included.
func TestMetricsLaneExposition(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsIn(reg, "mnist/hardware")
	m.admit()
	m.observeBatch(3, crossbar.Stats{Cycles: 100, NORs: 400, Reads: 7, Writes: 2, EnergyJ: 0.25})
	m.observeDone(2 * time.Millisecond)
	m.cancel()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`rapidnn_serve_admitted_total{lane="mnist/hardware"} 1`,
		`rapidnn_serve_requests_total{lane="mnist/hardware",outcome="completed"} 1`,
		`rapidnn_serve_requests_total{lane="mnist/hardware",outcome="canceled"} 1`,
		`rapidnn_serve_batches_total{lane="mnist/hardware"} 1`,
		`rapidnn_serve_substrate_cycles_total{lane="mnist/hardware"} 100`,
		`rapidnn_serve_substrate_nors_total{lane="mnist/hardware"} 400`,
		`rapidnn_serve_substrate_energy_joules_total{lane="mnist/hardware"} 0.25`,
		`rapidnn_serve_batch_size_bucket{lane="mnist/hardware",le="4"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\nfull output:\n%s", want, out)
		}
	}
}

// The dispatch path's bookkeeping must stay allocation-free — it sits inside
// the zero-alloc round trip guarded by BenchmarkServeRoundTrip.
func TestMetricsObservationsDoNotAllocate(t *testing.T) {
	m := NewMetrics()
	stats := crossbar.Stats{Cycles: 10, NORs: 40}
	if allocs := testing.AllocsPerRun(200, func() {
		m.admit()
		m.observeBatch(8, stats)
		m.observeDone(time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("metrics observations allocate %v per run, want 0", allocs)
	}
}
