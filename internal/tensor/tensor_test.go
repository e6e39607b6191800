package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	if a.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", a.Rank())
	}
	if a.Dim(1) != 3 {
		t.Fatalf("Dim(1) = %d, want 3", a.Dim(1))
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {-1, 2}, {3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestFromSliceMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7.5, 2, 1)
	if got := a.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := a.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("row-major layout broken: %v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	a.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.Set(5, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	a.AddInPlace(b)
	want := []float32{5, 7, 9}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("AddInPlace[%d] = %v, want %v", i, v, want[i])
		}
	}
	a.AxpyInPlace(-1, b)
	a.ScaleInPlace(2)
	wantScaled := []float32{2, 4, 6}
	for i, v := range a.Data() {
		if v != wantScaled[i] {
			t.Fatalf("Scale[%d] = %v, want %v", i, v, wantScaled[i])
		}
	}
	a.AxpyInPlace(-1, b)
	wantAxpy := []float32{-2, -1, 0}
	for i, v := range a.Data() {
		if v != wantAxpy[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, v, wantAxpy[i])
		}
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{3, -1, 4, -1, 5}, 5)
	if s := a.Sum(); s != 10 {
		t.Fatalf("Sum = %v, want 10", s)
	}
	if m := a.Max(); m != 5 {
		t.Fatalf("Max = %v, want 5", m)
	}
	if m := a.Min(); m != -1 {
		t.Fatalf("Min = %v, want -1", m)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	for i := range a.Data() {
		a.Data()[i] = rng.Float32()
	}
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	if !MatMul(a, id).Equal(a, 0) {
		t.Fatal("A × I != A")
	}
	if !MatMul(id, a).Equal(a, 0) {
		t.Fatal("I × A != A")
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MatMul did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// TestMatMulTransposeVariants verifies A×Bᵀ and Aᵀ×B against the plain
// kernel combined with explicit transposes.
func TestMatMulTransposeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(3, 5)
	b := New(4, 5)
	for i := range a.Data() {
		a.Data()[i] = rng.Float32()*2 - 1
	}
	for i := range b.Data() {
		b.Data()[i] = rng.Float32()*2 - 1
	}
	got := MatMulTransB(a, b)
	want := MatMul(a, Transpose(b))
	if !got.Equal(want, 1e-5) {
		t.Fatal("MatMulTransB disagrees with MatMul(a, bᵀ)")
	}
	c := New(5, 3)
	for i := range c.Data() {
		c.Data()[i] = rng.Float32()*2 - 1
	}
	b54 := FromSlice(b.Data(), 5, 4)
	got2 := MatMulTransA(c, b54)
	want2 := MatMul(Transpose(c), b54)
	if !got2.Equal(want2, 1e-5) {
		t.Fatal("MatMulTransA disagrees with MatMul(cᵀ, b)")
	}
}

// The parallel MatMulTransA kernel must be bit-identical to the serial
// p-major accumulation at a size big enough to cross the fan-out threshold
// (each output row accumulates over p in the same order regardless of how
// rows are partitioned across workers).
func TestMatMulTransAParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const k, m, n = 96, 80, 80 // m·k·n ≫ parallelOps
	a := New(k, m)
	b := New(k, n)
	for i := range a.Data() {
		a.Data()[i] = rng.Float32()*2 - 1
	}
	// Sprinkle zeros to exercise the skip path.
	for i := 0; i < len(a.Data()); i += 17 {
		a.Data()[i] = 0
	}
	for i := range b.Data() {
		b.Data()[i] = rng.Float32()*2 - 1
	}
	got := MatMulTransA(a, b)
	// Serial reference: the pre-parallelization kernel.
	want := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data()[p*m : (p+1)*m]
		brow := b.Data()[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := want.Data()[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	if !got.Equal(want, 0) {
		t.Fatal("parallel MatMulTransA is not bit-identical to the serial kernel")
	}
}

func TestMatMulInto(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	dst := New(2, 2)
	dst.Fill(42) // must be overwritten, not accumulated into
	MatMulInto(dst, a, b)
	if !dst.Equal(MatMul(a, b), 0) {
		t.Fatal("MatMulInto disagrees with MatMul")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(3, 7)
	for i := range a.Data() {
		a.Data()[i] = rng.Float32()
	}
	if !Transpose(Transpose(a)).Equal(a, 0) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

// Property: matmul distributes over addition, (A+B)C = AC + BC.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b, c := New(m, k), New(m, k), New(k, n)
		for i := range a.Data() {
			a.Data()[i] = rng.Float32()*2 - 1
			b.Data()[i] = rng.Float32()*2 - 1
		}
		for i := range c.Data() {
			c.Data()[i] = rng.Float32()*2 - 1
		}
		sum := a.Clone()
		sum.AddInPlace(b)
		left := MatMul(sum, c)
		right := MatMul(a, c)
		right.AddInPlace(MatMul(b, c))
		return left.Equal(right, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConvGeomOutput(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same-pad 3x3 output = %dx%d, want 32x32", g.OutH(), g.OutW())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized kernel must fail validation")
	}
}

func TestIm2ColManual(t *testing.T) {
	// 1-channel 3x3 image, 2x2 kernel, stride 1, no pad → 4 windows.
	img := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1}
	cols := Im2Col(img, g)
	want := [][]float32{
		{1, 2, 4, 5},
		{2, 3, 5, 6},
		{4, 5, 7, 8},
		{5, 6, 8, 9},
	}
	for r := range want {
		for c := range want[r] {
			if got := cols.At(r, c); got != want[r][c] {
				t.Fatalf("cols[%d][%d] = %v, want %v", r, c, got, want[r][c])
			}
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	img := []float32{1, 2, 3, 4}
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cols := Im2Col(img, g)
	if cols.Dim(0) != 4 || cols.Dim(1) != 9 {
		t.Fatalf("cols shape %v, want [4 9]", cols.Shape())
	}
	// First window centered at (0,0): top row and left column are padding.
	want0 := []float32{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for c, w := range want0 {
		if got := cols.At(0, c); got != w {
			t.Fatalf("window0[%d] = %v, want %v", c, got, w)
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. <Im2Col(x), y> == <x, Col2Im(y)>.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ConvGeom{
			InC: 1 + rng.Intn(2), InH: 3 + rng.Intn(4), InW: 3 + rng.Intn(4),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		if g.Validate() != nil {
			return true // skip degenerate geometry
		}
		x := make([]float32, g.InC*g.InH*g.InW)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
		}
		cols := Im2Col(x, g)
		y := New(cols.Dim(0), cols.Dim(1))
		for i := range y.Data() {
			y.Data()[i] = rng.Float32()*2 - 1
		}
		var lhs float64
		for i, v := range cols.Data() {
			lhs += float64(v) * float64(y.Data()[i])
		}
		back := Col2Im(y, g)
		var rhs float64
		for i, v := range back {
			rhs += float64(v) * float64(x[i])
		}
		return math.Abs(lhs-rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := New(128, 128)
	y := New(128, 128)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
		y.Data()[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

// The parallel kernels must be bit-identical to a serial reference: row
// partitioning preserves per-row accumulation order.
func TestParallelMatMulDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m, k, n := 300, 200, 150 // above the parallel threshold
	a, b := New(m, k), New(k, n)
	for i := range a.Data() {
		a.Data()[i] = rng.Float32()*2 - 1
	}
	for i := range b.Data() {
		b.Data()[i] = rng.Float32()*2 - 1
	}
	got := MatMul(a, b)
	// Serial reference.
	want := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.At(i, p)
			for j := 0; j < n; j++ {
				want.Data()[i*n+j] += av * b.At(p, j)
			}
		}
	}
	if !got.Equal(want, 0) {
		t.Fatal("parallel MatMul differs from serial reference")
	}
	// Repeated runs are identical (no scheduling nondeterminism).
	if !MatMul(a, b).Equal(got, 0) {
		t.Fatal("MatMul not reproducible")
	}
	if !MatMulTransB(a, Transpose(b)).Equal(got, 1e-4) {
		t.Fatal("parallel MatMulTransB inconsistent")
	}
}
