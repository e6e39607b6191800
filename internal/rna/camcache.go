package rna

import "sync/atomic"

// Batch-aware CAM lookup caching. Rows of a batch heavily share encodings —
// quantized activations land on a small codebook, so within one batch the
// same (CAM, encoded query) search repeats across neurons and rows. The
// search result is a pure function of the CAM contents and the fault overlay,
// both of which are frozen for the duration of a batch (injection must not
// run concurrently with inference), so each inference worker memoizes its
// searches in a small open-addressed table inside its own Scratch:
//
//   - The cache is OFF by default. InferBatchStats enables it for the
//     scratch each worker owns and disables it before the scratch goes back
//     to the pool, so fresh and pool-recycled scratches never observe
//     entries from an earlier fault configuration.
//   - Entries are validated against a generation counter; enabling bumps the
//     generation, which invalidates the whole table in O(1).
//   - One goroutine, one Scratch, one cache — workers share nothing, so the
//     memo needs no synchronization (the race test pins this).
//   - TMR-protected searches bypass the cache: the 2-of-3 vote bumps the
//     TMRVotes/TMRDisagreements counters per search, and memoizing would
//     silently change those observability semantics.
//
// Hits and misses accumulate in the scratch and are harvested into the
// network's obs registry counters when the batch drains.

// camCacheSlots is the table size (power of two). Activation and encoder
// codebooks hold ≲64 levels each, so even a deep network's working set of
// distinct (CAM, query) pairs sits far below this.
const camCacheSlots = 1024

// camProbeLimit bounds linear probing; past it the first probed slot is
// evicted. Collisions only cost a re-search, never a wrong answer.
const camProbeLimit = 8

// camCacheEntry is one memoized search: CAM identity key, encoded query,
// winning row, and the generation it was stored under.
type camCacheEntry struct {
	q   uint64
	key uint32
	gen uint32
	row int32
}

// camKeyCounter allocates process-unique CAM identity keys; every FuncRNA
// takes one per CAM at construction, so a (key, query) pair addresses one
// search domain without hashing pointers.
var camKeyCounter atomic.Uint32

// nextCAMKeys reserves the activation/encoder key pair of one FuncRNA.
func nextCAMKeys() (act, enc uint32) {
	base := camKeyCounter.Add(2)
	return base - 1, base
}

// enableCAMCache arms the scratch's CAM memo for one batch: the table is
// allocated on first use, prior entries are invalidated by the generation
// bump, and the hit/miss counters restart from zero.
func (s *Scratch) enableCAMCache() {
	if s.camCache == nil {
		s.camCache = make([]camCacheEntry, camCacheSlots)
	}
	s.camGen++
	if s.camGen == 0 {
		// Generation wrapped: stale entries could alias the new generation,
		// so clear the table once per 2^32 enables.
		for i := range s.camCache {
			s.camCache[i] = camCacheEntry{}
		}
		s.camGen = 1
	}
	s.camOn = true
	s.camHits, s.camMisses = 0, 0
}

// disableCAMCache disarms the memo before the scratch changes hands.
func (s *Scratch) disableCAMCache() { s.camOn = false }

// camSlot mixes the (key, query) pair into a table index.
func camSlot(key uint32, q uint64) uint32 {
	x := q ^ uint64(key)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return uint32(x) & (camCacheSlots - 1)
}

// camLookup returns the memoized row of (key, q) for the current generation.
func (s *Scratch) camLookup(key uint32, q uint64) (int, bool) {
	slot := camSlot(key, q)
	for p := uint32(0); p < camProbeLimit; p++ {
		e := &s.camCache[(slot+p)&(camCacheSlots-1)]
		if e.gen == s.camGen && e.key == key && e.q == q {
			return int(e.row), true
		}
	}
	return 0, false
}

// camStore memoizes a search result, evicting within the probe window if no
// free (stale-generation) slot is available.
func (s *Scratch) camStore(key uint32, q uint64, row int) {
	slot := camSlot(key, q)
	victim := &s.camCache[slot]
	for p := uint32(0); p < camProbeLimit; p++ {
		e := &s.camCache[(slot+p)&(camCacheSlots-1)]
		if e.gen != s.camGen {
			victim = e
			break
		}
	}
	*victim = camCacheEntry{q: q, key: key, gen: s.camGen, row: int32(row)}
}
