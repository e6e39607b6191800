package crossbar

import (
	"fmt"

	"repro/internal/device"
)

// This file holds the gate-level oracle of the in-memory adder: a crossbar
// whose every NOR, write, read and row copy charges its own cycle and energy,
// and the carry-save tree plus ripple adder built from those NORs. The
// native modular sum and Price are pinned bit-identical to AddManyReference,
// sums and Stats alike.

// Crossbar is a bank of memory rows, each holding up to 64 bits. A row-wise
// NOR combines two rows into a third in one cycle, the primitive the
// in-memory adder is decomposed into (§4.1.2, [41]).
type Crossbar struct {
	dev   device.Params
	width int
	mask  uint64
	rows  []uint64
	Stats Stats
}

// New creates a crossbar with the given row count and bit width (≤64).
func New(dev device.Params, rows, width int) *Crossbar {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("crossbar: width %d out of [1,64]", width))
	}
	if rows < 1 {
		panic(fmt.Sprintf("crossbar: rows %d", rows))
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = (1 << width) - 1
	}
	return &Crossbar{dev: dev, width: width, mask: mask, rows: make([]uint64, rows)}
}

// Write programs a row with a value, charging per-bit write energy (NVM
// writes are the expensive reconfiguration path, §5.5's multiplexing cost).
func (c *Crossbar) Write(row int, v uint64) {
	c.rows[row] = v & c.mask
	c.Stats.Writes++
	c.Stats.Cycles++
	c.Stats.EnergyJ += float64(c.width) * c.dev.CrossbarWriteEnergy
}

// Read fetches a row value (a pre-stored product lookup).
func (c *Crossbar) Read(row int) uint64 {
	c.Stats.Reads++
	c.Stats.Cycles++
	c.Stats.EnergyJ += c.dev.CrossbarReadEnergy
	return c.rows[row]
}

// Peek returns a row without charging cycles/energy.
func (c *Crossbar) Peek(row int) uint64 { return c.rows[row] }

// NOR computes rows[dst] = ¬(rows[a] ∨ rows[b]) across all bit positions in
// one cycle — the single-cycle memristive NOR of [41].
func (c *Crossbar) NOR(dst, a, b int) {
	c.rows[dst] = ^(c.rows[a] | c.rows[b]) & c.mask
	c.Stats.NORs++
	c.Stats.Cycles++
	c.Stats.EnergyJ += c.dev.NOREnergy
}

// NOT computes rows[dst] = ¬rows[a] (a NOR with itself).
func (c *Crossbar) NOT(dst, a int) { c.NOR(dst, a, a) }

// ShiftLeft moves a row one bit towards the MSB. In the crossbar this is
// pure wiring between adjacent bit-lines, so it costs no NOR cycle; we
// charge one cycle for the row copy.
func (c *Crossbar) ShiftLeft(dst, a int) {
	c.rows[dst] = (c.rows[a] << 1) & c.mask
	c.Stats.Cycles++
}

// adder reserves scratch rows above the operands of a crossbar.
type adder struct {
	c    *Crossbar
	next int // next free scratch row
}

func (a *adder) temp() int {
	if a.next >= len(a.c.rows) {
		panic("crossbar: out of scratch rows")
	}
	r := a.next
	a.next++
	return r
}

func (a *adder) release(to int) { a.next = to }

// or computes dst = x ∨ y with 2 NORs.
func (a *adder) or(dst, x, y int) {
	t := a.temp()
	a.c.NOR(t, x, y)
	a.c.NOT(dst, t)
}

// and computes dst = x ∧ y with 3 NORs.
func (a *adder) and(dst, x, y int) {
	tx, ty := a.temp(), a.temp()
	a.c.NOT(tx, x)
	a.c.NOT(ty, y)
	a.c.NOR(dst, tx, ty)
}

// xor computes dst = x ⊕ y with 5 NORs: the 4-gate NOR network
// NOR(NOR(x,n), NOR(y,n)) with n = NOR(x,y) yields XNOR; a final
// inversion gives XOR.
func (a *adder) xor(dst, x, y int) {
	n, p, q, xn := a.temp(), a.temp(), a.temp(), a.temp()
	a.c.NOR(n, x, y)
	a.c.NOR(p, x, n)
	a.c.NOR(q, y, n)
	a.c.NOR(xn, p, q)
	a.c.NOT(dst, xn)
}

// compress3to2 reduces rows x, y, z to a sum row and a carry row
// (carry already shifted left): s = x⊕y⊕z, c = maj(x,y,z)<<1.
func (a *adder) compress3to2(x, y, z, sumOut, carryOut int) {
	mark := a.next
	t := a.temp()
	a.xor(t, x, y)
	a.xor(sumOut, t, z)
	// maj = (x∧y) ∨ (z∧(x⊕y)) — reuses the xor intermediate t.
	xy, zt, maj := a.temp(), a.temp(), a.temp()
	a.and(xy, x, y)
	a.and(zt, z, t)
	a.or(maj, xy, zt)
	a.c.ShiftLeft(carryOut, maj)
	a.release(mark)
}

// rippleAdd resolves two rows into their full sum using a NOR-decomposed
// full adder per bit position. The result lands in sumOut. This is the
// carry-propagating final stage whose latency the paper models as 13·N
// cycles.
func (a *adder) rippleAdd(x, y, sumOut int) {
	c := a.c
	var carry, out uint64
	xv, yv := c.rows[x], c.rows[y]
	for i := 0; i < c.width; i++ {
		xb := (xv >> i) & 1
		yb := (yv >> i) & 1
		// Full adder at bit level through the same NOR costing: a full adder
		// is 9 NOR gates; charge them so the energy model sees real work.
		s := xb ^ yb ^ carry
		carry = (xb & yb) | (carry & (xb ^ yb))
		out |= s << i
		c.Stats.NORs += fullAdderGates
		c.Stats.Cycles += int64(c.dev.AddFinalCyclesPerBit)
		c.Stats.EnergyJ += fullAdderGates * c.dev.NOREnergy
	}
	c.rows[sumOut] = out & c.mask
}

// AddManyReference sums the given values through the full gate-level
// simulation: every NOR of the carry-save tree and the ripple stage runs on
// a Crossbar and charges its own cycle/energy.
func AddManyReference(dev device.Params, values []uint64, width int) (sum uint64, stats Stats) {
	if len(values) == 0 {
		return 0, Stats{}
	}
	// Enough rows for operands plus generous scratch. Stale row contents are
	// harmless: every scratch row is written before it is read.
	c := New(dev, 2*len(values)+32, width)
	for i, v := range values {
		c.Write(i, v)
	}
	live := make([]int, len(values))
	for i := range values {
		live[i] = i
	}
	a := adder{c: c, next: len(values)}
	spare := make([]int, 0, len(values))
	for len(live) > 2 {
		next := spare[:0]
		i := 0
		for ; i+2 < len(live); i += 3 {
			mark := a.next
			sr, cr := a.temp(), a.temp()
			a.next = mark + 2
			a.compress3to2(live[i], live[i+1], live[i+2], sr, cr)
			next = append(next, sr, cr)
		}
		next = append(next, live[i:]...)
		// Compact survivors to the front so scratch space is reusable.
		for j, r := range next {
			c.rows[j] = c.rows[r]
			next[j] = j
		}
		a.release(len(next))
		spare, live = live, next
	}
	if len(live) == 1 {
		return c.rows[live[0]], c.Stats
	}
	out := a.temp()
	a.rippleAdd(live[0], live[1], out)
	return c.rows[out], c.Stats
}
