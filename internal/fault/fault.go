// Package fault is the reliability layer of the repository: seeded fault
// models for the non-volatile substrates and the protection mechanisms that
// detect, correct or map those faults out. The paper itself treats
// reliability as a design input — §4.2.2 runs 5000 Monte Carlo trials of
// process variation on the NDCAM discharge path to pick the 8-bit stage
// split — and a deployed NVM accelerator additionally faces stuck-at cells
// (endurance/yield), transient read disturbs and dead CAM rows. This package
// provides:
//
//   - Config: a seeded description of one fault scenario (permanent
//     stuck-at cells, transient per-read bit flips, NDCAM row failures).
//     Injection is overlay-based: the pristine contents are never mutated,
//     so any fault map is fully revertible — snapshot/restore for free.
//   - Protection: the per-mechanism switches (SEC-DED parity on stored
//     words, spare-row remapping, TMR NDCAM search) plus an analytic
//     area/energy overhead model, so sweeps can price each mechanism.
//   - Counters: concurrent-safe event counters (corrected, uncorrectable,
//     remapped, TMR disagreements, transient flips) the serving and bench
//     layers report.
//
// The word-level mechanics (SEC-DED, transient masks) live here; the
// row-level CAM semantics live in internal/ndcam; internal/rna wires both
// into the functional hardware network.
package fault

import (
	"fmt"
	"sync/atomic"
)

// Config describes one seeded fault scenario. The zero value is the
// fault-free configuration. All rates are probabilities in [0,1].
type Config struct {
	// StuckRate is the per-cell probability that a stored product bit cell
	// is permanently stuck. A stuck cell is *pinned*: re-reads are
	// idempotent, and a cell pinned to the value it already stores is not an
	// error. This is the manufacturing-yield / endurance-wearout model.
	StuckRate float64
	// StuckAtOneFrac is the fraction of stuck cells pinned to 1 (the rest
	// pin to 0). Values outside (0,1] default to an even 0.5 split.
	StuckAtOneFrac float64
	// TransientRate is the per-read, per-bit probability of a momentary
	// flip (read disturb / sensing noise). Transient flips never persist:
	// the next read of the same cell redraws.
	TransientRate float64
	// CAMRowRate is the per-row probability that an NDCAM row fails.
	CAMRowRate float64
	// CAMShortFrac is the fraction of failed CAM rows that discharge
	// instantly and therefore always match (a shorted match line); the rest
	// never discharge and always miss. Values outside (0,1] default to 0.5.
	CAMShortFrac float64
	// Seed makes the drawn fault map deterministic: equal (Config, target)
	// pairs produce identical fault maps.
	Seed int64
}

// Validate rejects rates outside [0,1].
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"StuckRate", c.StuckRate}, {"TransientRate", c.TransientRate}, {"CAMRowRate", c.CAMRowRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %v out of [0,1]", r.name, r.v)
		}
	}
	return nil
}

// OneFrac returns the stuck-at-1 fraction with the default applied.
func (c Config) OneFrac() float64 {
	if c.StuckAtOneFrac <= 0 || c.StuckAtOneFrac > 1 {
		return 0.5
	}
	return c.StuckAtOneFrac
}

// ShortFrac returns the always-match fraction with the default applied.
func (c Config) ShortFrac() float64 {
	if c.CAMShortFrac <= 0 || c.CAMShortFrac > 1 {
		return 0.5
	}
	return c.CAMShortFrac
}

// ForModel builds the Config for one named fault model at a given rate —
// the vocabulary the CLI sweep flags speak. Models:
//
//	stuck     permanent stuck-at cells at rate
//	transient per-read bit flips at rate
//	camrow    NDCAM row failures at rate
//	mixed     stuck + camrow at rate, transient at rate/10
func ForModel(model string, rate float64, seed int64) (Config, error) {
	cfg := Config{Seed: seed}
	switch model {
	case "stuck", "":
		cfg.StuckRate = rate
	case "transient":
		cfg.TransientRate = rate
	case "camrow":
		cfg.CAMRowRate = rate
	case "mixed":
		cfg.StuckRate = rate
		cfg.TransientRate = rate / 10
		cfg.CAMRowRate = rate
	default:
		return Config{}, fmt.Errorf("fault: unknown fault model %q (valid: stuck, transient, camrow, mixed)", model)
	}
	return cfg, cfg.Validate()
}

// Protection selects which mechanisms shield the network. The zero value is
// the unprotected design. Each switch is independent so sweeps can price
// every combination.
type Protection struct {
	// Parity stores a (39,32) SEC-DED code word per pre-computed product:
	// single-bit errors (permanent or transient) are corrected on read,
	// double-bit errors are detected and counted, wider errors may silently
	// miscorrect — the true failure mode of SEC-DED.
	Parity bool
	// SpareRows is the per-crossbar budget of spare rows available for
	// remapping. At repair time (a march test after fault injection) the
	// words with the most stuck bits are remapped to fault-free spares,
	// worst first — classic yield repair for permanent faults. 0 disables.
	SpareRows int
	// TMR searches the activation and encoder NDCAMs through three
	// independently manufactured replicas and majority-votes the result;
	// disagreements beyond majority fall back to the median row.
	TMR bool
}

// ParseProtection builds a Protection from a CLI name: none, parity, spare,
// tmr, or a "+"-joined combination (parity+spare, all = parity+spare+tmr).
// spareRows is the budget used when the spare mechanism is enabled.
func ParseProtection(name string, spareRows int) (Protection, error) {
	var p Protection
	if name == "" || name == "none" {
		return p, nil
	}
	if name == "all" {
		return Protection{Parity: true, SpareRows: spareRows, TMR: true}, nil
	}
	for _, part := range splitPlus(name) {
		switch part {
		case "parity":
			p.Parity = true
		case "spare":
			p.SpareRows = spareRows
		case "tmr":
			p.TMR = true
		default:
			return Protection{}, fmt.Errorf("fault: unknown protection %q (valid: none, parity, spare, tmr, all, or a + combination)", part)
		}
	}
	return p, nil
}

func splitPlus(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '+' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// String names the enabled mechanisms ("none", "parity+spare", ...).
func (p Protection) String() string {
	var parts []string
	if p.Parity {
		parts = append(parts, "parity")
	}
	if p.SpareRows > 0 {
		parts = append(parts, "spare")
	}
	if p.TMR {
		parts = append(parts, "tmr")
	}
	if len(parts) == 0 {
		return "none"
	}
	s := parts[0]
	for _, x := range parts[1:] {
		s += "+" + x
	}
	return s
}

// Overhead is the analytic cost of a protection combination relative to the
// unprotected design: multiplicative factors on the crossbar array area,
// the associative-memory area, the per-search AM energy and the per-read
// crossbar energy. The factors compose the same way the mechanisms do.
type Overhead struct {
	CrossbarArea float64
	CAMArea      float64
	SearchEnergy float64
	ReadEnergy   float64
}

// Overhead prices the enabled mechanisms. crossbarRows is the data-row
// population of one crossbar (the spare budget is amortized over it).
//
//   - Parity stores 7 check cells per 32 data cells (×39/32 area) and reads
//     plus-decodes them on every product fetch (×39/32 energy plus a small
//     syndrome-logic term).
//   - Spare rows add SpareRows extra physical rows per crossbar.
//   - TMR triplicates both AM arrays and every search.
func (p Protection) Overhead(crossbarRows int) Overhead {
	o := Overhead{CrossbarArea: 1, CAMArea: 1, SearchEnergy: 1, ReadEnergy: 1}
	if p.Parity {
		o.CrossbarArea *= 39.0 / 32.0
		o.ReadEnergy *= 39.0/32.0 + 0.05 // fetch check cells + syndrome logic
	}
	if p.SpareRows > 0 && crossbarRows > 0 {
		o.CrossbarArea *= 1 + float64(p.SpareRows)/float64(crossbarRows)
	}
	if p.TMR {
		o.CAMArea *= 3
		o.SearchEnergy *= 3
	}
	return o
}

// Counters accumulates protection and fault events. All fields are safe for
// concurrent use — the hardware network updates them from every inference
// worker goroutine.
type Counters struct {
	// Parity events per protected product read.
	Corrected     atomic.Int64 // single-bit error corrected to the true word
	Uncorrectable atomic.Int64 // double-bit error: detected, not corrected
	// Spare-row repair events (counted once per repair pass).
	Remapped       atomic.Int64 // faulty words remapped to spare rows
	SpareShortfall atomic.Int64 // faulty words left in place: budget exhausted
	// TMR events per voted search.
	TMRVotes         atomic.Int64
	TMRDisagreements atomic.Int64 // all three replicas answered differently
	// Transient activity.
	TransientFlips atomic.Int64
}

// Snapshot is a plain-value copy of the counters for reporting. Detected,
// every read whose syndrome was non-zero, is Corrected + Uncorrectable.
type Snapshot struct {
	Corrected, Detected, Uncorrectable int64
	Remapped, SpareShortfall           int64
	TMRVotes, TMRDisagreements         int64
	TransientFlips                     int64
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() Snapshot {
	corrected, uncorrectable := c.Corrected.Load(), c.Uncorrectable.Load()
	return Snapshot{
		Corrected:        corrected,
		Detected:         corrected + uncorrectable,
		Uncorrectable:    uncorrectable,
		Remapped:         c.Remapped.Load(),
		SpareShortfall:   c.SpareShortfall.Load(),
		TMRVotes:         c.TMRVotes.Load(),
		TMRDisagreements: c.TMRDisagreements.Load(),
		TransientFlips:   c.TransientFlips.Load(),
	}
}

// Reset zeroes every counter.
func (c *Counters) Reset() {
	c.Corrected.Store(0)
	c.Uncorrectable.Store(0)
	c.Remapped.Store(0)
	c.SpareShortfall.Store(0)
	c.TMRVotes.Store(0)
	c.TMRDisagreements.Store(0)
	c.TransientFlips.Store(0)
}

// Report summarizes one injection: what the drawn fault map actually pins
// or breaks, before any protection acts on it.
type Report struct {
	// StuckCells is the number of pinned cells (data and, when present,
	// check cells).
	StuckCells int
	// StuckBits is the number of pinned data bits whose pinned value
	// differs from the pristine stored bit — the observable corruptions.
	StuckBits int
	// CAMRowsFailed counts failed rows in the primary (non-redundant)
	// replica of every CAM.
	CAMRowsFailed int
	// TransientRate echoes the configured per-read flip rate.
	TransientRate float64
}

func (r Report) String() string {
	return fmt.Sprintf("stuck cells %d (%d corrupting), CAM rows failed %d, transient rate %g",
		r.StuckCells, r.StuckBits, r.CAMRowsFailed, r.TransientRate)
}
