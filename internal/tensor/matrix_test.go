package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

// naiveMul is the textbook triple loop used as the reference oracle.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		r, k, c := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a, b := randMat(rng, r, k), randMat(rng, k, c)
		got := MatMul(a, b)
		want := naiveMul(a, b)
		if !got.Equal(want, tol) {
			t.Fatalf("trial %d: MatMul differs from naive (%dx%d · %dx%d)", trial, r, k, k, c)
		}
	}
}

func TestMatMulTNMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		k, r, c := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(15)
		a, b := randMat(rng, k, r), randMat(rng, k, c)
		got := MatMulTN(a, b)
		want := MatMul(transpose(a), b)
		if !got.Equal(want, tol) {
			t.Fatalf("trial %d: MatMulTN mismatch", trial)
		}
	}
}

func TestMatMulNTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		r, k, c := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(15)
		a, b := randMat(rng, r, k), randMat(rng, c, k)
		got := MatMulNT(a, b)
		want := MatMul(a, transpose(b))
		if !got.Equal(want, tol) {
			t.Fatalf("trial %d: MatMulNT mismatch", trial)
		}
	}
}

func TestIdentityIsMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 9, 9)
	id := New(9, 9)
	for i := 0; i < 9; i++ {
		id.Set(i, i, 1)
	}
	if !MatMul(id, a).Equal(a, tol) || !MatMul(a, id).Equal(a, tol) {
		t.Fatal("identity is not a multiplicative identity")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMat(rng, 1+rng.Intn(12), 1+rng.Intn(12))
		return transpose(transpose(m)).Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a, b := randMat(rng, r, k), randMat(rng, k, c)
		d := randMat(rng, k, c)
		lhs := MatMul(a, b.Add(d))
		rhs := MatMul(a, b).Add(MatMul(a, d))
		return lhs.Equal(rhs, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, m, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b, d := randMat(rng, r, k), randMat(rng, k, m), randMat(rng, m, c)
		lhs := MatMul(MatMul(a, b), d)
		rhs := MatMul(a, MatMul(b, d))
		return lhs.Equal(rhs, 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestColumnBlockDecomposition encodes the batch-parallel identity the
// engines rely on: multiplying by column blocks and concatenating equals the
// full product, i.e. W·[X1|X2] = [W·X1|W·X2].
func TestColumnBlockDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k := 1+rng.Intn(8), 1+rng.Intn(8)
		c1, c2 := 1+rng.Intn(8), 1+rng.Intn(8)
		w := randMat(rng, r, k)
		x1, x2 := randMat(rng, k, c1), randMat(rng, k, c2)
		full := MatMul(w, hstack(x1, x2))
		parts := hstack(MatMul(w, x1), MatMul(w, x2))
		return full.Equal(parts, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRowBlockDecomposition encodes the model-parallel identity:
// [W1;W2]·X = [W1·X; W2·X] (the all-gather reassembly of Fig. 1).
func TestRowBlockDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k, c := 1+rng.Intn(8), 1+rng.Intn(8)
		r1, r2 := 1+rng.Intn(8), 1+rng.Intn(8)
		w1, w2 := randMat(rng, r1, k), randMat(rng, r2, k)
		x := randMat(rng, k, c)
		full := MatMul(VStack(w1, w2), x)
		parts := VStack(MatMul(w1, x), MatMul(w2, x))
		return full.Equal(parts, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInnerBlockDecomposition encodes the ∆W all-reduce identity of Eq. 4:
// ∆Y·Xᵀ = Σ over column blocks ∆Y_b·X_bᵀ (partial sums reduced).
func TestInnerBlockDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		b1, b2 := 1+rng.Intn(8), 1+rng.Intn(8)
		dy1, dy2 := randMat(rng, r, b1), randMat(rng, r, b2)
		x1, x2 := randMat(rng, c, b1), randMat(rng, c, b2)
		full := MatMulNT(hstack(dy1, dy2), hstack(x1, x2))
		parts := MatMulNT(dy1, x1).Add(MatMulNT(dy2, x2))
		return full.Equal(parts, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceAndSetRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMat(rng, 10, 12)
	cols := m.SliceCols(3, 9)
	if !hstack(m.SliceCols(0, 3), cols, m.SliceCols(9, 12)).Equal(m, 0) {
		t.Fatal("SliceCols/hstack round trip changed data")
	}
	rows := m.SliceRows(2, 7)
	if !VStack(m.SliceRows(0, 2), rows, m.SliceRows(7, 10)).Equal(m, 0) {
		t.Fatal("SliceRows/VStack round trip changed data")
	}
}

func TestHStackVStackShapes(t *testing.T) {
	a, b := New(3, 2), New(3, 5)
	h := hstack(a, b)
	if h.Rows != 3 || h.Cols != 7 {
		t.Fatalf("hstack shape = %dx%d, want 3x7", h.Rows, h.Cols)
	}
	c, d := New(2, 4), New(5, 4)
	v := VStack(c, d)
	if v.Rows != 7 || v.Cols != 4 {
		t.Fatalf("VStack shape = %dx%d, want 7x4", v.Rows, v.Cols)
	}
}

func TestScaleAddAXPY(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := randMat(rng, 6, 6), randMat(rng, 6, 6)
	scaled := b.Clone()
	scaled.ScaleInPlace(2.5)
	want := a.Add(scaled)
	got := a.Clone()
	got.AXPY(2.5, b)
	if !got.Equal(want, tol) {
		t.Fatal("AXPY differs from Add(ScaleInPlace)")
	}
	c := a.Sub(a)
	if !c.Equal(New(6, 6), 0) {
		t.Fatal("a - a should be zero")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(5, 5, 1, 42)
	b := Random(5, 5, 1, 42)
	if !a.Equal(b, 0) {
		t.Fatal("Random with identical seeds differs")
	}
	c := Random(5, 5, 1, 43)
	if a.Equal(c, 0) {
		t.Fatal("Random with different seeds should differ")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{1, 2.5, 3, 3})
	if d := a.MaxAbsDiff(b); math.Abs(d-1) > tol {
		t.Fatalf("MaxAbsDiff = %v, want 1", d)
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dimension mismatch")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestSumAndFill(t *testing.T) {
	m := New(3, 4)
	m.Fill(0.5)
	if math.Abs(m.Sum()-6) > tol {
		t.Fatalf("Sum = %v, want 6", m.Sum())
	}
	m.Fill(0)
	if m.Sum() != 0 {
		t.Fatal("Fill(0) did not clear the matrix")
	}
}

// transpose returns mᵀ as a new matrix: the explicit reference of the
// fused MatMulTN and MatMulNT.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// hstack concatenates matrices of equal Rows horizontally: the
// column-block reference of the blocked products.
func hstack(ms ...*Matrix) *Matrix {
	cols := 0
	for _, m := range ms {
		cols += m.Cols
	}
	out := New(ms[0].Rows, cols)
	off := 0
	for _, m := range ms {
		for i := 0; i < m.Rows; i++ {
			copy(out.Row(i)[off:], m.Row(i))
		}
		off += m.Cols
	}
	return out
}
