package device

import (
	"math"
	"testing"
)

// Geometry is a simplified NVSim-style circuit estimator (§5.1: "energy
// consumption and performance is also cross-validated using NVSim"): block
// area and access energy are derived from technology geometry — feature
// size, cell footprint in F², peripheral overhead — instead of being quoted
// directly. The per-cell constants are calibrated once against the paper's
// HSPICE/post-layout numbers (Table 1); the estimator's value is that the
// *scaling* with rows, columns and technology node is modeled, so derived
// configurations (smaller crossbars, wider CAMs, other nodes) can be
// estimated consistently.
type Geometry struct {
	// TechNm is the feature size F in nanometres (45 for TSMC 45 nm).
	TechNm float64
	// CrossbarCellF2 is the crosspoint cell footprint in F². Memristor
	// crossbars reach below the planar 4F² limit with stacked layers; the
	// paper's 3136 µm² for a 1K×1K array corresponds to ≈1.33F² effective.
	CrossbarCellF2 float64
	// CAMCellF2 is the footprint of one 2T-2R NDCAM cell (the clocked
	// self-referenced TCAM of [53]).
	CAMCellF2 float64
	// CAMRowBits is the stored width of one AM row (the y coordinate plus
	// its crossbar-held z value share the row pitch).
	CAMRowBits int
	// PeripheryFraction is the decoder/driver/sense-amp overhead as a
	// fraction of the raw array area.
	PeripheryFraction float64
	// ReadEnergyPerBitJ and WriteEnergyPerBitJ model array access energy.
	ReadEnergyPerBitJ  float64
	WriteEnergyPerBitJ float64
}

// DefaultGeometry is calibrated against Table 1 at 45 nm.
func DefaultGeometry() Geometry {
	return Geometry{
		TechNm:             45,
		CrossbarCellF2:     1.33,
		CAMCellF2:          26,
		CAMRowBits:         24,
		PeripheryFraction:  0.165,
		ReadEnergyPerBitJ:  0.6e-15,
		WriteEnergyPerBitJ: 10e-15,
	}
}

// f2Um2 converts an F² count to µm² at the geometry's node.
func (g Geometry) f2Um2(cells float64) float64 {
	f := g.TechNm * 1e-3 // µm
	return cells * f * f
}

// CrossbarAreaUm2 estimates the area of a rows×cols crosspoint array with
// periphery.
func (g Geometry) CrossbarAreaUm2(rows, cols int) float64 {
	raw := g.f2Um2(float64(rows) * float64(cols) * g.CrossbarCellF2)
	return raw * (1 + g.PeripheryFraction)
}

// CAMAreaUm2 estimates the area of an AM block with the given row count.
func (g Geometry) CAMAreaUm2(rows int) float64 {
	raw := g.f2Um2(float64(rows) * float64(g.CAMRowBits) * g.CAMCellF2)
	return raw * (1 + g.PeripheryFraction)
}

// CrossbarReadEnergyJ estimates a full-row read.
func (g Geometry) CrossbarReadEnergyJ(cols int) float64 {
	return float64(cols) * g.ReadEnergyPerBitJ
}

// CrossbarWriteEnergyJ estimates programming one cell.
func (g Geometry) CrossbarWriteEnergyJ() float64 { return g.WriteEnergyPerBitJ }

// ScaleToNode returns the geometry migrated to another technology node,
// with energies scaled by the classical (F'/F)² dynamic-energy rule.
func (g Geometry) ScaleToNode(nm float64) Geometry {
	k := nm / g.TechNm
	out := g
	out.TechNm = nm
	out.ReadEnergyPerBitJ *= k * k
	out.WriteEnergyPerBitJ *= k * k
	return out
}

// CrossValidate compares the estimator against reference block areas,
// returning the worst relative deviation. TestGeometryCrossValidatesTable1
// asserts it stays within the NVSim-vs-layout tolerance the paper implies.
func (g Geometry) CrossValidate(p Params) float64 {
	worst := 0.0
	check := func(est, ref float64) {
		if d := math.Abs(est-ref) / ref; d > worst {
			worst = d
		}
	}
	check(g.CrossbarAreaUm2(p.CrossbarRows, p.CrossbarCols), p.CrossbarAreaUm2)
	check(g.CAMAreaUm2(p.AMRows), p.AMAreaUm2)
	return worst
}

// §5.1: the HSPICE numbers were "cross-validated using NVSim". Our
// NVSim-style estimator must land within 15 % of the Table 1 block areas.
func TestGeometryCrossValidatesTable1(t *testing.T) {
	g := DefaultGeometry()
	if worst := g.CrossValidate(Default()); worst > 0.15 {
		t.Fatalf("worst deviation %.1f%% from Table 1, want ≤ 15%%", 100*worst)
	}
}

func TestGeometryCrossbarScaling(t *testing.T) {
	g := DefaultGeometry()
	full := g.CrossbarAreaUm2(1024, 1024)
	quarter := g.CrossbarAreaUm2(512, 512)
	ratio := full / quarter
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("area should scale ~4× with doubled rows+cols, got %.2f", ratio)
	}
}

func TestGeometryCAMScalesWithRows(t *testing.T) {
	g := DefaultGeometry()
	if g.CAMAreaUm2(128) <= g.CAMAreaUm2(64) {
		t.Fatal("more rows must cost more area")
	}
	r := g.CAMAreaUm2(128) / g.CAMAreaUm2(64)
	if r < 1.9 || r > 2.1 {
		t.Fatalf("CAM area ratio %.2f, want ≈2", r)
	}
}

func TestGeometryNodeScaling(t *testing.T) {
	g := DefaultGeometry()
	g28 := g.ScaleToNode(28)
	// Area shrinks quadratically with the node.
	a45 := g.CrossbarAreaUm2(1024, 1024)
	a28 := g28.CrossbarAreaUm2(1024, 1024)
	want := (28.0 / 45.0) * (28.0 / 45.0)
	if got := a28 / a45; got < want*0.99 || got > want*1.01 {
		t.Fatalf("area scale factor %.3f, want %.3f", got, want)
	}
	if g28.ReadEnergyPerBitJ >= g.ReadEnergyPerBitJ {
		t.Fatal("energy must shrink at smaller nodes")
	}
}

func TestGeometryEnergyOrdering(t *testing.T) {
	g := DefaultGeometry()
	if g.CrossbarWriteEnergyJ() <= g.ReadEnergyPerBitJ {
		t.Fatal("NVM writes must cost more than reads")
	}
	if g.CrossbarReadEnergyJ(1024) <= g.CrossbarReadEnergyJ(64) {
		t.Fatal("wider reads must cost more")
	}
}
