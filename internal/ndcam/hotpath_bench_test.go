package ndcam

import (
	"math/rand"
	"testing"
)

// BenchmarkSearchAllocs measures the fault-free search — the form every
// activation lookup and encoder search takes on the pristine inference path,
// and reports the CAM rows it scans per second. Steady state must be
// allocation-free: TestSearchStatsZeroAllocs pins it at exactly 0 allocs/op.
func BenchmarkSearchAllocs(b *testing.B) {
	cam := New(dev(), 16)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 64; i++ {
		cam.Write(rng.Uint64() & 0xFFFF)
	}
	queries := make([]uint64, 256)
	for i := range queries {
		queries[i] = rng.Uint64() & 0xFFFF
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cam.Search(queries[i%len(queries)], nil)
	}
	b.ReportMetric(float64(b.N*cam.Len())/b.Elapsed().Seconds(), "rows/s")
}
