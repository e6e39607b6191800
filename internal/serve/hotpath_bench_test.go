package serve

import (
	"context"
	"testing"
)

// BenchmarkServeRoundTrip measures one closed-loop request through the
// batcher and the hardware execution path — submit, coalesce, infer, reply —
// the per-request cost a serving worker pays before any network I/O. Unlike
// BenchmarkServeBatching (open-loop latency under offered load) this is the
// allocation/throughput view the hot-path regression harness tracks; it
// reports the rows answered per second.
func BenchmarkServeRoundTrip(b *testing.B) {
	m := syntheticModel(b, true)
	infer, err := m.inferFn(PathHardware)
	if err != nil {
		b.Fatal(err)
	}
	bt := NewBatcher(BatcherConfig{
		MaxBatch:   8,
		QueueDepth: 64,
	}, infer, nil)
	defer bt.Close()
	rows := testRows(64, m.InSize(), 3)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bt.Submit(ctx, rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
