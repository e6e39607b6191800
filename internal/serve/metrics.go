package serve

import (
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/crossbar"
	"repro/internal/obs"
)

// latencyBuckets is the fixed layout of the per-lane latency histogram:
// 100µs to ~13s in powers of two — wide enough for the software path's
// microsecond batches and the hardware path's second-scale ones.
var latencyBuckets = obs.ExpBuckets(0.0001, 2, 17)

// batchSizeBuckets is the fixed layout of the batch-size histogram,
// power-of-two steps up to the largest plausible MaxBatch.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Metrics aggregates one serving lane's counters: admission and outcome
// counts, the batch-size and latency distributions, and the substrate
// activity (NOR cycles, crossbar energy) folded out of rna.Stats.
//
// Every statistic lives in exactly one obs registry instrument — a
// pre-registered handle whose observations are atomic bumps, keeping the
// dispatch path allocation-free and lock-free — and both /metrics and the
// /stats Snapshot read those instruments. All methods are safe for
// concurrent use.
type Metrics struct {
	admitted  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	rejected  *obs.Counter
	canceled  *obs.Counter
	batches   *obs.Counter
	batchSzH  *obs.Histogram
	latencyH  *obs.Histogram
	subCycles *obs.Counter
	subNORs   *obs.Counter
	subReads  *obs.Counter
	subWrites *obs.Counter
	subEnergy *obs.FloatCounter

	// Drain-rate estimator state: an EWMA of completions/second, sampled
	// lazily by DrainRate so the hot dispatch path pays nothing for it.
	drainMu        sync.Mutex
	drainCompleted uint64
	drainSample    time.Time
	drainRate      float64
}

// NewMetrics returns a sink backed by a private, unexposed registry — the
// shape tests and standalone batchers use. Servers register lanes into
// their shared registry with NewMetricsIn so /metrics can expose them.
func NewMetrics() *Metrics { return NewMetricsIn(obs.NewRegistry(), "default") }

// NewMetricsIn returns a sink whose instruments are registered in reg under
// the given lane label, so one registry exposes every lane side by side.
func NewMetricsIn(reg *obs.Registry, lane string) *Metrics {
	l := obs.L("lane", lane)
	outcome := func(o string) *obs.Counter {
		return reg.Counter("rapidnn_serve_requests_total",
			"Requests by final outcome (completed, failed, rejected, canceled).",
			l, obs.L("outcome", o))
	}
	return &Metrics{
		admitted:  reg.Counter("rapidnn_serve_admitted_total", "Requests admitted into the batching queue.", l),
		completed: outcome("completed"),
		failed:    outcome("failed"),
		rejected:  outcome("rejected"),
		canceled:  outcome("canceled"),
		batches:   reg.Counter("rapidnn_serve_batches_total", "Coalesced batches dispatched to the backend.", l),
		batchSzH: reg.Histogram("rapidnn_serve_batch_size",
			"Rows per dispatched batch.", batchSizeBuckets, l),
		latencyH: reg.Histogram("rapidnn_serve_latency_seconds",
			"End-to-end request latency from admission to delivery.", latencyBuckets, l),
		subCycles: reg.Counter("rapidnn_serve_substrate_cycles_total", "Substrate cycles spent on this lane.", l),
		subNORs:   reg.Counter("rapidnn_serve_substrate_nors_total", "NOR gate evaluations spent on this lane.", l),
		subReads:  reg.Counter("rapidnn_serve_substrate_reads_total", "Crossbar reads spent on this lane.", l),
		subWrites: reg.Counter("rapidnn_serve_substrate_writes_total", "Crossbar writes spent on this lane.", l),
		subEnergy: reg.FloatCounter("rapidnn_serve_substrate_energy_joules_total", "Substrate energy spent on this lane.", l),
	}
}

func (m *Metrics) admit()  { m.admitted.Inc() }
func (m *Metrics) reject() { m.rejected.Inc() }
func (m *Metrics) cancel() { m.canceled.Inc() }
func (m *Metrics) fail()   { m.failed.Inc() }

func (m *Metrics) observeBatch(size int, stats crossbar.Stats) {
	m.batches.Inc()
	m.batchSzH.Observe(float64(size))
	m.subCycles.Add(uint64(stats.Cycles))
	m.subNORs.Add(uint64(stats.NORs))
	m.subReads.Add(uint64(stats.Reads))
	m.subWrites.Add(uint64(stats.Writes))
	m.subEnergy.Add(stats.EnergyJ)
}

func (m *Metrics) observeDone(d time.Duration) {
	m.completed.Inc()
	m.latencyH.Observe(d.Seconds())
}

// drainEWMAAlpha blends each fresh completions/second sample into the
// running estimate: high enough to track a regime change within a few
// samples, low enough that one bursty scrape does not whipsaw Retry-After.
const drainEWMAAlpha = 0.5

// drainMinInterval is the shortest interval a rate sample may span; calls
// inside it reuse the previous estimate instead of dividing by noise.
const drainMinInterval = 100 * time.Millisecond

// DrainRate estimates this lane's current completion throughput in
// requests/second, from the completed counter sampled at call time and
// blended as an EWMA. The first call primes the estimator and returns 0
// ("unknown"), as does a lane that has not completed anything between
// samples for a while.
func (m *Metrics) DrainRate(now time.Time) float64 {
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	completed := m.completed.Value()
	if m.drainSample.IsZero() {
		m.drainSample, m.drainCompleted = now, completed
		return 0
	}
	dt := now.Sub(m.drainSample)
	if dt < drainMinInterval {
		return m.drainRate
	}
	sample := float64(completed-m.drainCompleted) / dt.Seconds()
	m.drainRate = drainEWMAAlpha*sample + (1-drainEWMAAlpha)*m.drainRate
	m.drainSample, m.drainCompleted = now, completed
	return m.drainRate
}

// Retry-After bounds: a shed client always waits at least a second (less
// would stampede a queue that is full *now*) and never more than thirty (a
// stale hint must not park clients beyond any plausible drain).
const (
	retryAfterMinSec = 1
	retryAfterMaxSec = 30
)

// RetryAfterSeconds derives the 503 Retry-After hint from the shedding
// lane's actual state: the time the current queue needs to drain at the
// observed completion rate, clamped to [retryAfterMinSec, retryAfterMaxSec].
// An unknown rate (a lane that just started) falls back to the minimum — the
// queue was deep enough to shed, but there is no evidence it drains slowly.
func RetryAfterSeconds(depth int, drainPerSec float64) int {
	if depth <= 0 || drainPerSec <= 0 {
		return retryAfterMinSec
	}
	secs := int(math.Ceil(float64(depth) / drainPerSec))
	if secs < retryAfterMinSec {
		return retryAfterMinSec
	}
	if secs > retryAfterMaxSec {
		return retryAfterMaxSec
	}
	return secs
}

// LatencyQuantiles is the latency block of a lane's /stats entry, in
// milliseconds since the lane started. Each value is the upper bound of the
// latency-histogram bucket that holds the nearest-rank observation (for Max,
// the highest non-empty bucket); the +Inf bucket reports the largest finite
// bound, since JSON cannot encode infinity.
type LatencyQuantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// SubstrateStats mirrors crossbar.Stats with JSON tags for /stats.
type SubstrateStats struct {
	Cycles  int64   `json:"cycles"`
	NORs    int64   `json:"nors"`
	Reads   int64   `json:"reads"`
	Writes  int64   `json:"writes"`
	EnergyJ float64 `json:"energy_j"`
}

// LaneStats is the JSON shape of one serving lane in the /stats payload.
// BatchSizes counts batches per non-empty batch-size bucket, keyed by the
// bucket's upper bound.
type LaneStats struct {
	Admitted   uint64            `json:"admitted"`
	Completed  uint64            `json:"completed"`
	Failed     uint64            `json:"failed"`
	Rejected   uint64            `json:"rejected"`
	Canceled   uint64            `json:"canceled"`
	Batches    uint64            `json:"batches"`
	MeanBatch  float64           `json:"mean_batch"`
	BatchSizes map[string]uint64 `json:"batch_sizes"`
	QueueDepth int               `json:"queue_depth"`
	LatencyMS  LatencyQuantiles  `json:"latency_ms"`
	Substrate  SubstrateStats    `json:"substrate"`
}

// Snapshot reads the lane's instruments. queueDepth is sampled by the caller
// (the gauge lives on the batcher, not here).
func (m *Metrics) Snapshot(queueDepth int) LaneStats {
	ls := LaneStats{
		Admitted:   m.admitted.Value(),
		Completed:  m.completed.Value(),
		Failed:     m.failed.Value(),
		Rejected:   m.rejected.Value(),
		Canceled:   m.canceled.Value(),
		Batches:    m.batches.Value(),
		BatchSizes: make(map[string]uint64),
		QueueDepth: queueDepth,
		Substrate: SubstrateStats{
			Cycles:  int64(m.subCycles.Value()),
			NORs:    int64(m.subNORs.Value()),
			Reads:   int64(m.subReads.Value()),
			Writes:  int64(m.subWrites.Value()),
			EnergyJ: m.subEnergy.Value(),
		},
	}
	if n := m.batchSzH.Count(); n > 0 {
		ls.MeanBatch = m.batchSzH.Sum() / float64(n)
	}
	bounds, counts := m.batchSzH.Buckets()
	for i, c := range counts {
		if c > 0 {
			ub := math.Inf(1)
			if i < len(bounds) {
				ub = bounds[i]
			}
			ls.BatchSizes[strconv.FormatFloat(ub, 'g', -1, 64)] = c
		}
	}

	bounds, counts = m.latencyH.Buckets()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return ls
	}
	// upperMS is bucket i's upper bound in milliseconds, the +Inf bucket
	// clamped to the largest finite bound.
	upperMS := func(i int) float64 { return 1000 * bounds[min(i, len(bounds)-1)] }
	// nearestRank returns the upper bound of the bucket holding the
	// observation of rank round(q·total), clamped to [1, total].
	nearestRank := func(q float64) float64 {
		rank := min(max(uint64(q*float64(total)+0.5), 1), total)
		var cum uint64
		for i, c := range counts {
			if cum += c; cum >= rank {
				return upperMS(i)
			}
		}
		return upperMS(len(counts) - 1)
	}
	// Rank total lands in the highest non-empty bucket.
	ls.LatencyMS = LatencyQuantiles{P50: nearestRank(0.50), P90: nearestRank(0.90), P99: nearestRank(0.99), Max: nearestRank(1)}
	return ls
}
