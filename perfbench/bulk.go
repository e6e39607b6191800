package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rna"
	"repro/internal/tensor"
)

// bulkBatch is the closed loop's batch size.
const bulkBatch = 16

// batch is a pre-built executor input and the pool rows it holds.
type batch struct {
	rows []int
	x    *tensor.Tensor
}

// makeBatches packs pool rows into batches of size rows each.
func makeBatches(in *inputs, rows []int, size int) []batch {
	var out []batch
	for s := 0; s < len(rows); s += size {
		e := min(s+size, len(rows))
		flat := make([]float32, 0, (e-s)*in.InSize)
		for _, r := range rows[s:e] {
			flat = append(flat, in.Pool[r]...)
		}
		out = append(out, batch{rows: rows[s:e], x: tensor.FromSlice(flat, e-s, in.InSize)})
	}
	return out
}

// batchRun accumulates InferBatchStats calls and checks their answers.
type batchRun struct {
	batches, rows, failed int
	lat                   []float64 // ms per call
	wall                  time.Duration
	stats, expect         crossbar.Stats
	firstErr              error
}

// infer runs one batch and checks every answer against the references.
func (r *batchRun) infer(hw *rna.HardwareNetwork, in *inputs, b batch) {
	t0 := time.Now()
	preds, st, err := hw.InferBatchStats(b.x)
	d := time.Since(t0)
	r.wall += d
	r.lat = append(r.lat, ms(d))
	r.batches++
	r.rows += len(b.rows)
	if err != nil {
		r.failed += len(b.rows)
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.stats = addStats(r.stats, st)
	for i, row := range b.rows {
		r.expect = addCounts(r.expect, in.HWStats[row])
		if preds[i] != in.Hardware[row] {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("row %d answered %d, want %d", row, preds[i], in.Hardware[row])
			}
		}
	}
}

// check reports whether every run's simulated activity equals the
// references' for the same rows, and notes each run's first failure in the
// record.
func (env *runEnv) check(runs ...*batchRun) bool {
	ok := true
	for _, r := range runs {
		if r.firstErr != nil {
			env.rec.Notes = append(env.rec.Notes, r.firstErr.Error())
		}
		if got := addCounts(crossbar.Stats{}, r.stats); got != r.expect {
			ok = false
			env.rec.Notes = append(env.rec.Notes, fmt.Sprintf("simulated activity %+v, references %+v", got, r.expect))
		}
	}
	return ok
}

// addCounts adds the integer counters of two Stats. Energy is a float sum
// whose rounding depends on how rows were batched, so activity is compared
// with the references on the counts only.
func addCounts(a, b crossbar.Stats) crossbar.Stats {
	return crossbar.Stats{Cycles: a.Cycles + b.Cycles, NORs: a.NORs + b.NORs, Reads: a.Reads + b.Reads, Writes: a.Writes + b.Writes}
}

func addStats(a, b crossbar.Stats) crossbar.Stats {
	c := addCounts(a, b)
	c.EnergyJ = a.EnergyJ + b.EnergyJ
	return c
}

// warmUp runs batches on a freshly lowered network until the per-batch
// time settles — two consecutive batches within 10 % of each other, at
// most len(bs) batches — and returns the time spent beyond the settled
// per-batch time: the cost of filling the executor's caches (the memoized
// adder schedules of its scratch arenas).
func warmUp(hw *rna.HardwareNetwork, in *inputs, bs []batch) (time.Duration, *batchRun) {
	r := &batchRun{}
	for i, b := range bs {
		r.infer(hw, in, b)
		if i > 0 {
			prev, cur := r.lat[i-1], r.lat[i]
			if cur > 0.9*prev && cur < 1.1*prev {
				break
			}
		}
	}
	settled := r.lat[len(r.lat)-1]
	excess := 0.0
	for _, l := range r.lat[:len(r.lat)-1] {
		excess += max(l-settled, 0)
	}
	return time.Duration(excess * float64(time.Millisecond)), r
}

// loweredNet is a hardware network lowered from the artifact, with the
// artifact it borrows its tables from.
type loweredNet struct {
	c     *composer.Composed
	hw    *rna.HardwareNetwork
	lower time.Duration
}

// openNet opens the artifact and lowers it the way the closed loop runs
// it: with GOMAXPROCS workers and, on bulk-faults, the seed's fault
// scenario with protection on.
func openNet(env *runEnv) (*loweredNet, error) {
	c, err := composer.LoadFile(env.artifact)
	if err != nil {
		return nil, err
	}
	b := &loweredNet{c: c}
	t0 := time.Now()
	b.hw, err = rna.BuildHardwareNetwork(composer.NewReinterpreted(c.Net, c.Plans).Net(), c.Plans, device.Default())
	b.lower = time.Since(t0)
	if err == nil && env.o.workload.faults {
		var rep fault.Report
		rep, err = b.hw.InjectFaults(bulkFaults(env.o.seed))
		if err == nil && rep != env.in.FaultReport {
			err = fmt.Errorf("fault map differs from the prepare step's: %v vs %v", rep, env.in.FaultReport)
		}
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	if env.o.workload.faults {
		b.hw.SetProtection(bulkProtection)
	}
	b.hw.Workers = runtime.GOMAXPROCS(0)
	return b, nil
}

// bulkOrder is the closed loop's seeded row sequence, cut into batches:
// seeded permutations of the pool, so every row recurs equally often.
func bulkOrder(in *inputs, seed int64) []batch {
	rng := rand.New(rand.NewSource(seed))
	var rows []int
	for len(rows) == 0 || len(rows)%bulkBatch != 0 {
		rows = append(rows, rng.Perm(len(in.Pool))...)
	}
	return makeBatches(in, rows, bulkBatch)
}

// loop calls InferBatchStats back to back, cycling through bs from index
// first, for the given duration.
func loop(hw *rna.HardwareNetwork, in *inputs, bs []batch, first int, d time.Duration) *batchRun {
	r := &batchRun{}
	deadline := time.Now().Add(d)
	for i := first; time.Now().Before(deadline); i++ {
		r.infer(hw, in, bs[i%len(bs)])
	}
	return r
}

// runBulk measures the closed-loop workload.
func runBulk(env *runEnv) (*outcome, error) {
	o, in := env.o, env.in
	bs := bulkOrder(in, o.seed)
	r := env.rec
	r.Loop, r.ExecutorWorkers, r.BatchSize = "closed", runtime.GOMAXPROCS(0), bulkBatch
	if o.trace {
		return traceBulk(env, bs)
	}
	var times []float64
	var b *loweredNet
	for i := 0; i < setups; i++ {
		if b != nil {
			b.c.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = openNet(env); err != nil {
			return nil, err
		}
		warm := &batchRun{}
		warm.infer(b.hw, in, bs[0])
		if warm.failed > 0 {
			b.c.Close()
			return nil, fmt.Errorf("warm-up batch: %v", warm.firstErr)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer b.c.Close()
	r.SetupS = append([]float64(nil), times...)
	u0 := readUsage()
	t0 := time.Now()
	run := loop(b.hw, in, bs, 1, secondsDur(o.seconds))
	wall := time.Since(t0)
	use := readUsage().sub(u0)
	out := &outcome{attempted: run.rows, failed: run.failed, correct: env.check(run), metrics: map[string]float64{}}
	r.GCCycles, r.StealPct = use.gc, use.stealPct()
	good := run.rows - run.failed
	m := out.metrics
	m["setup_s"] = p50(times)
	m["peak_rss_mb"] = peakRSSMB()
	m["latency_p50_ms"], _ = r.latencies(run.lat)
	m["cpu_ms_per_row"] = ms(use.cpu) / float64(max(good, 1))
	m["rows_per_s"] = float64(good) / wall.Seconds()
	return out, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traceBulk is the traced run of the closed loop: half the time untraced,
// then a freshly lowered network — with the scratch pool emptied so the
// warm-up is cold — traced per layer for the other half.
func traceBulk(env *runEnv, bs []batch) (*outcome, error) {
	o, in := env.o, env.in
	half := secondsDur(o.seconds / 2)
	out := &outcome{correct: true, metrics: map[string]float64{}}
	m := out.metrics

	b, err := openNet(env)
	if err != nil {
		return nil, err
	}
	warm := &batchRun{}
	warm.infer(b.hw, in, bs[0])
	u0 := readUsage()
	plain := loop(b.hw, in, bs, 1, half)
	use := readUsage().sub(u0)
	b.c.Close()
	m["go.gc_cycles"] = float64(use.gc)
	m["go.alloc_kb_per_row"] = float64(use.alloc) / 1024 / float64(max(plain.rows, 1))
	env.rec.GCCycles, env.rec.StealPct = use.gc, use.stealPct()

	traced, warmT, err := traceNet(env, m, bs, func(hw *rna.HardwareNetwork) *batchRun {
		return loop(hw, in, bs, 0, half)
	})
	if err != nil {
		return nil, err
	}
	out.correct = env.check(warm, plain, warmT, traced)
	for _, r := range []*batchRun{warm, plain, warmT, traced} {
		out.attempted += r.rows
		out.failed += r.failed
	}
	plainRate := float64(plain.rows) / plain.wall.Seconds()
	tracedRate := float64(traced.rows) / traced.wall.Seconds()
	m["trace.overhead_pct"] = 100 * (plainRate/tracedRate - 1)
	_, m["loadgen.tail_ms"] = env.rec.latencies(plain.lat)

	var rows []int
	for _, b := range bs[:layerRows/bulkBatch] {
		rows = append(rows, b.rows...)
	}
	return out, measureComposer(env, m, rows, bulkBatch)
}

// traceNet lowers a fresh network from an emptied scratch pool, times the
// lowering and the warm-up on the first of the batches, then traces and
// instruments the network for work and reports the hardware layer's
// per-layer metrics. It returns work's run and the warm-up's.
func traceNet(env *runEnv, m map[string]float64, bs []batch, work func(*rna.HardwareNetwork) *batchRun) (r, warm *batchRun, err error) {
	// Two collections empty the sync.Pool that holds the executor's scratch
	// arenas, so the warm-up below starts cold, as after a GC in service.
	runtime.GC()
	runtime.GC()
	var lowers []float64
	var b *loweredNet
	for i := 0; i < 3; i++ {
		if b != nil {
			b.c.Close()
		}
		if b, err = openNet(env); err != nil {
			return nil, nil, err
		}
		lowers = append(lowers, ms(b.lower))
	}
	defer b.c.Close()
	m["rna.lower_ms"] = p50(lowers)
	excess, warm := warmUp(b.hw, env.in, bs[:min(len(bs), 8)])
	m["rna.warmup_ms"] = ms(excess)

	tr := obs.NewTracer(traceCap)
	reg := obs.NewRegistry()
	b.hw.Trace = tr
	b.hw.Instrument(reg)
	b.hw.FaultCounters().Reset()
	r = work(b.hw)
	spans, err := readSpans(tr)
	if err != nil {
		return nil, nil, err
	}
	rows := float64(max(r.rows, 1))
	m["rna.ms_per_row"] = ms(r.wall) / rows
	for name, v := range layerMS(spans, r.rows) {
		m["rna.layer."+name] = v
	}
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		return nil, nil, err
	}
	hits := sumMetric(expo.String(), "rapidnn_rna_cam_cache_hits_total")
	misses := sumMetric(expo.String(), "rapidnn_rna_cam_cache_misses_total")
	if hits+misses > 0 {
		m["rna.cam_hit_ratio"] = hits / (hits + misses)
	}
	m["rna.cycles_per_row"] = float64(r.stats.Cycles) / rows
	m["rna.nors_per_row"] = float64(r.stats.NORs) / rows
	m["rna.reads_per_row"] = float64(r.stats.Reads) / rows
	m["rna.energy_nj_per_row"] = r.stats.EnergyJ * 1e9 / rows
	fc := b.hw.FaultCounters().Snapshot()
	m["fault.corrected_per_row"] = float64(fc.Corrected) / rows
	m["fault.tmr_votes_per_row"] = float64(fc.TMRVotes) / rows
	m["fault.tmr_disagreements_per_row"] = float64(fc.TMRDisagreements) / rows
	return r, warm, nil
}
