package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
)

// BenchmarkServeBatching sweeps the batcher's MaxBatch under a fixed
// open-loop offered load — arrivals every 200µs no matter how the batcher
// keeps up. MaxBatch=1 pays per-row dispatch on every request; a larger cap
// lets continuous batching take whatever queued behind a running batch, so
// rows/batch shows how far batches grew at this load.
//
//	go test ./internal/serve/ -bench ServeBatching -benchtime 2000x
func BenchmarkServeBatching(b *testing.B) {
	for _, maxBatch := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("maxbatch=%d", maxBatch), func(b *testing.B) {
			m := syntheticModel(b, false)
			infer, err := m.inferFn(PathSoftware)
			if err != nil {
				b.Fatal(err)
			}
			bt := NewBatcher(BatcherConfig{
				MaxBatch:   maxBatch,
				QueueDepth: b.N + 1, // the sweep measures batching, not shedding
			}, infer, nil)
			defer bt.Close()
			rows := testRows(256, m.InSize(), 3)

			b.ReportAllocs()
			b.ResetTimer()
			rep := bench.OpenLoop(200*time.Microsecond, b.N, func(i int) error {
				_, err := bt.Submit(context.Background(), rows[i%len(rows)])
				return err
			})
			b.StopTimer()
			if rep.Errors > 0 {
				b.Fatalf("%d of %d requests failed", rep.Errors, rep.Requests)
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			b.ReportMetric(ms(rep.P50), "p50-ms")
			b.ReportMetric(ms(rep.P99), "p99-ms")
			b.ReportMetric(rep.ThroughputRPS, "req/s")
			b.ReportMetric(bt.Metrics().Snapshot(0).MeanBatch, "rows/batch")
		})
	}
}
