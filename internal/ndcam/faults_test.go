package ndcam

import "testing"

// searchUnder is the production search under the row-fault overlay rf; the
// scalar oracle must agree on the way, so every case below pins both.
func searchUnder(t *testing.T, cam *NDCAM, q uint64, rf []RowFault) (int, Stats) {
	t.Helper()
	row, st := cam.Search(q, BuildFaultMask(rf))
	if wantRow, wantSt := cam.searchOracle(q, rf); row != wantRow || st != wantSt {
		t.Fatalf("query %d under %v: Search (%d, %+v), oracle (%d, %+v)", q, rf, row, st, wantRow, wantSt)
	}
	return row, st
}

// fillCAM writes the patterns 0,10,20,...,(n-1)*10 so nearest-distance
// results are easy to predict.
func fillCAM(t *testing.T, mode Mode, n int) *NDCAM {
	t.Helper()
	cam := New(dev(), 16, mode)
	for i := 0; i < n; i++ {
		cam.Write(uint64(i * 10))
	}
	return cam
}

func TestSearchFaultyNilOverlayMatchesClean(t *testing.T) {
	for _, mode := range []Mode{Hamming, Weighted} {
		cam := fillCAM(t, mode, 8)
		for q := uint64(0); q < 80; q += 7 {
			clean, cs := cam.Search(q, nil)
			faulty, fs := cam.searchOracle(q, nil)
			if clean != faulty || cs != fs {
				t.Fatalf("mode %v query %d: nil overlay %d/%+v differs from clean %d/%+v",
					mode, q, faulty, fs, clean, cs)
			}
			// An all-OK overlay is equally transparent.
			ok, _ := searchUnder(t, cam, q, make([]RowFault, 8))
			if ok != clean {
				t.Fatalf("mode %v query %d: all-OK overlay %d differs from clean %d", mode, q, ok, clean)
			}
		}
	}
}

func TestSearchFaultyDeadRowsAreSkipped(t *testing.T) {
	for _, mode := range []Mode{Hamming, Weighted} {
		cam := fillCAM(t, mode, 4)
		// Query 21 is nearest row 2 (=20); kill row 2 and the search must
		// fall to the next-nearest live row.
		rf := make([]RowFault, 4)
		rf[2] = RowDead
		got, _ := searchUnder(t, cam, 21, rf)
		if got == 2 {
			t.Fatalf("mode %v: dead row still won", mode)
		}
		want, _ := func() (int, Stats) {
			// Reference: search a CAM without row 2.
			ref := New(dev(), 16, mode)
			ref.Write(0)
			ref.Write(10)
			ref.Write(30)
			return ref.Search(21, nil)
		}()
		// Map the reference index back (rows 0,1 map directly; 2 → 3).
		if want == 2 {
			want = 3
		}
		if got != want {
			t.Fatalf("mode %v: dead-row search won row %d, want %d", mode, got, want)
		}
	}
}

func TestSearchFaultyShortRowAlwaysWins(t *testing.T) {
	for _, mode := range []Mode{Hamming, Weighted} {
		cam := fillCAM(t, mode, 6)
		rf := make([]RowFault, 6)
		rf[4] = RowShort
		for q := uint64(0); q < 60; q += 5 {
			if got, _ := searchUnder(t, cam, q, rf); got != 4 {
				t.Fatalf("mode %v query %d: shorted row lost to %d", mode, q, got)
			}
		}
		// Two shorts: the lowest index is sensed first.
		rf[1] = RowShort
		if got, _ := searchUnder(t, cam, 55, rf); got != 1 {
			t.Fatalf("mode %v: lowest shorted row must win, got %d", mode, got)
		}
	}
}

func TestSearchFaultyAllDeadLatchesDefaultRow(t *testing.T) {
	cam := fillCAM(t, Weighted, 3)
	rf := []RowFault{RowDead, RowDead, RowDead}
	if got, _ := searchUnder(t, cam, 25, rf); got != 0 {
		t.Fatalf("all-dead CAM latched row %d, want the default row 0", got)
	}
}

// A short overlay (fewer entries than rows) leaves the uncovered tail
// healthy — the overlay is per-row state, not a length contract.
func TestSearchFaultyShortOverlay(t *testing.T) {
	cam := fillCAM(t, Weighted, 6)
	rf := []RowFault{RowDead} // only row 0 annotated
	if got, _ := searchUnder(t, cam, 48, rf); got != 5 {
		t.Fatalf("short overlay search won %d, want 5", got)
	}
}

// The overlay search must charge the same cycles/energy as the clean one:
// faults change which line is sensed, not how many lines are driven.
func TestSearchFaultyStatsUnchanged(t *testing.T) {
	cam := fillCAM(t, Weighted, 8)
	_, clean := cam.Search(33, nil)
	rf := make([]RowFault, 8)
	rf[0], rf[3] = RowDead, RowShort
	_, faulty := searchUnder(t, cam, 33, rf)
	if clean != faulty {
		t.Fatalf("faulty search stats %+v differ from clean %+v", faulty, clean)
	}
}
