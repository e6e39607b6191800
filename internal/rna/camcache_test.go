package rna

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// The batch-scoped CAM cache must be invisible in results: with the cache
// armed, activation and encoder searches return exactly what the uncached
// path returns — pristine, under row-fault overlays, and across re-injection
// (a fresh enable must invalidate everything the old fault map memoized).
func TestCachedCAMSearchMatchesUncached(t *testing.T) {
	r, _, _ := hotNeuron()
	rng := rand.New(rand.NewSource(31))
	s, uncached := NewScratch(), NewScratch()
	check := func(stage string) {
		t.Helper()
		s.enableCAMCache()
		for trial := 0; trial < 400; trial++ {
			q := rng.Uint64() & 0xFFFF
			if trial%7 == 0 {
				q = rng.Uint64() // out-of-domain queries too
			}
			// Twice per query: the second round is served from the cache.
			for pass := 0; pass < 2; pass++ {
				if got, want := r.searchActCAM(q, s), r.searchActCAM(q, uncached); got != want {
					t.Fatalf("%s: act search(%#x) pass %d: cached %d, uncached %d", stage, q, pass, got, want)
				}
				if got, want := r.searchEncCAM(q, s), r.searchEncCAM(q, uncached); got != want {
					t.Fatalf("%s: enc search(%#x) pass %d: cached %d, uncached %d", stage, q, pass, got, want)
				}
			}
		}
		if s.camHits == 0 {
			t.Fatalf("%s: repeated queries never hit the cache", stage)
		}
		s.disableCAMCache()
	}
	check("pristine")
	if r.injectFaults(fault.Config{CAMRowRate: 0.3, CAMShortFrac: 0.2, Seed: 71}, rng, nil).CAMRowsFailed == 0 {
		t.Fatal("no CAM rows failed at 30%")
	}
	check("row faults")
	// A different fault map memoizing into the same scratch: the enable-time
	// generation bump must discard every earlier entry.
	r.injectFaults(fault.Config{CAMRowRate: 0.5, CAMShortFrac: 0.0, Seed: 72}, rng, nil)
	check("re-injected")
	r.ClearFaults()
	check("cleared")
}

// TMR-protected searches must bypass the cache: the 2-of-3 vote counters are
// per-search observability, and a memo would silently swallow them.
func TestCachedCAMSearchTMRBypass(t *testing.T) {
	r, _, _ := hotNeuron()
	rng := rand.New(rand.NewSource(32))
	var cnt fault.Counters
	r.injectFaults(fault.Config{CAMRowRate: 0.3, CAMShortFrac: 1e-9, Seed: 73}, rng, &cnt)
	r.SetProtection(fault.Protection{TMR: true}, &cnt)
	s := NewScratch()
	s.enableCAMCache()
	const n = 50
	q := rng.Uint64() & 0xFFFF
	for i := 0; i < n; i++ {
		r.searchActCAM(q, s) // identical query every time
	}
	if votes := cnt.Snapshot().TMRVotes; votes != n {
		t.Fatalf("TMR voted %d times for %d searches; the cache must not intercept protected searches", votes, n)
	}
	if s.camHits != 0 {
		t.Fatalf("cache recorded %d hits under TMR", s.camHits)
	}
}

// With the cache armed the steady-state neuron fire must stay at zero heap
// allocations — the memo table is part of the scratch working set.
func TestCachedEvalScratchZeroAllocs(t *testing.T) {
	r, wi, ui := hotNeuron()
	s := NewScratch()
	s.enableCAMCache()
	fire(r, wi, ui, 0, s) // grow scratch + cache to working-set size
	allocs := testing.AllocsPerRun(200, func() {
		fire(r, wi, ui, 0, s)
	})
	if allocs != 0 {
		t.Fatalf("cache-armed neuron fire allocates %v per op, want 0", allocs)
	}
}

// FuzzCachedCAMSearch is the differential fuzz target of the cache rewrite:
// arbitrary fault densities and query streams must keep the cached search
// identical to the uncached one, with the memo warm across queries.
func FuzzCachedCAMSearch(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), []byte{1, 2, 3})
	f.Add(int64(2), uint8(80), uint8(40), []byte{0, 0, 0, 255})
	f.Add(int64(3), uint8(255), uint8(255), []byte{9, 9, 1})
	f.Fuzz(func(t *testing.T, seed int64, rowRate, shortFrac uint8, queries []byte) {
		if len(queries) > 256 {
			queries = queries[:256]
		}
		r, _, _ := hotNeuron()
		rng := rand.New(rand.NewSource(seed))
		if rowRate > 0 {
			cfg := fault.Config{
				CAMRowRate:   float64(rowRate) / 256,
				CAMShortFrac: float64(shortFrac) / 255,
				Seed:         seed,
			}
			r.injectFaults(cfg, rng, nil)
		}
		s, uncached := NewScratch(), NewScratch()
		s.enableCAMCache()
		for _, b := range queries {
			q := rng.Uint64() >> (b % 49) // vary query magnitude
			if got, want := r.searchActCAM(q, s), r.searchActCAM(q, uncached); got != want {
				t.Fatalf("act search(%#x): cached %d, uncached %d", q, got, want)
			}
			if got, want := r.searchEncCAM(q, s), r.searchEncCAM(q, uncached); got != want {
				t.Fatalf("enc search(%#x): cached %d, uncached %d", q, got, want)
			}
		}
	})
}

// Concurrent InferBatchStats workers each arm the CAM cache on their own Scratch;
// nothing is shared, predictions stay bit-identical to the serial path, and
// the instrumented hit counter proves the cache actually engaged. This is
// the race-detector target for the cache (make race).
func TestInferBatchCAMCacheConcurrent(t *testing.T) {
	hw := tracedHW(t)
	reg := obs.NewRegistry()
	hw.Instrument(reg)

	rng := rand.New(rand.NewSource(33))
	const n, in = 24, 10
	data := make([]float32, n*in)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	batch := tensor.FromSlice(data, n, in)

	serial := tracedHW(t)
	serial.Workers = 1
	wantPreds, wantStats, err := serial.InferBatchStats(batch)
	if err != nil {
		t.Fatal(err)
	}

	hw.Workers = 4
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			preds, stats, err := hw.InferBatchStats(batch)
			if err != nil {
				t.Error(err)
				return
			}
			if stats != wantStats {
				t.Errorf("concurrent batch stats %+v differ from serial %+v", stats, wantStats)
			}
			for i := range preds {
				if preds[i] != wantPreds[i] {
					t.Errorf("prediction %d is %d, serial says %d", i, preds[i], wantPreds[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if hits := hw.nobs.camHits.Value(); hits == 0 {
		t.Fatal("no CAM cache hits across three concurrent batches")
	}
}
